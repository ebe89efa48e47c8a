package main

import (
	"bufio"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// scrape is a set of Prometheus text samples, summed over the scraped pages.
type scrape struct{ v map[string]float64 }

// scrapeAll reads the service page and every tenant's page.
func scrapeAll(url string, ins []tenantInput) (*scrape, error) {
	c := newClient(url)
	defer c.close()
	s := &scrape{v: map[string]float64{}}
	paths := []string{"/metrics"}
	for _, in := range ins {
		paths = append(paths, "/v1/tenants/"+in.req.Name+"/metrics")
	}
	for _, path := range paths {
		resp, err := c.hc.Get(url + path)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", path, err)
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				continue
			}
			s.v[line[:i]] += v
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", path, err)
		}
	}
	return s, nil
}

// sum adds every series of the named family.
func (s *scrape) sum(name string) float64 {
	t := 0.0
	for k, v := range s.v {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// hist is a cumulative log-2 histogram: upper edge → observations at or
// below it.
type hist map[float64]float64

func (s *scrape) hist(name string) hist {
	h := hist{}
	prefix := name + "_bucket{le=\""
	for k, v := range s.v {
		if rest, ok := strings.CutPrefix(k, prefix); ok {
			le, err := strconv.ParseFloat(strings.TrimSuffix(rest, "\"}"), 64)
			if err == nil {
				h[le] += v
			}
		}
	}
	return h
}

func (h hist) minus(o hist) hist {
	d := hist{}
	for k, v := range h {
		d[k] = v - o[k]
	}
	return d
}

// quantile is the upper edge of the bucket holding the q-quantile — within
// 2x, as precise as the exported histogram allows.
func (h hist) quantile(q float64) float64 {
	edges := make([]float64, 0, len(h))
	for k := range h {
		edges = append(edges, k)
	}
	sort.Float64s(edges)
	if len(edges) == 0 {
		return 0
	}
	total := h[edges[len(edges)-1]]
	for _, e := range edges {
		if h[e] >= q*total && total > 0 {
			return e
		}
	}
	return edges[len(edges)-1]
}
