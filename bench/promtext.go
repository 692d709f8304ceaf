package main

import (
	"strconv"
	"strings"
)

// promSample is one scrape of the server's /metrics: series name, with its
// label set when it has one, to value. Histograms appear as their _sum,
// _count and _bucket series.
type promSample map[string]float64

// parsePromText parses the Prometheus text exposition format. Lines it
// cannot read are skipped: a scrape is an observation, not an input the
// benchmark depends on for correctness.
func parsePromText(text string) promSample {
	out := promSample{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may contain spaces.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out
}

// delta is after − before for every series in after. A series that did not
// exist before started at 0, which is how a labelled counter is born.
func (after promSample) delta(before promSample) promSample {
	out := make(promSample, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sumWhere adds up the series of one metric family whose label set
// contains every given fragment, e.g. sumWhere("sqlshare_http_requests_total", `status="5`).
func (s promSample) sumWhere(family string, fragments ...string) float64 {
	var total float64
series:
	for k, v := range s {
		if k != family && !strings.HasPrefix(k, family+"{") {
			continue
		}
		for _, f := range fragments {
			if !strings.Contains(k, f) {
				continue series
			}
		}
		total += v
	}
	return total
}

// histMean is a histogram's mean observation over the interval the sample
// covers: _sum over _count.
func (s promSample) histMean(name string) float64 {
	return ratio(s[name+"_sum"], s[name+"_count"])
}
