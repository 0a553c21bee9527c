package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// selfTimes computes every span's self time: its duration minus the part
// of its interval its children cover. Overlapping children (the shard's
// concurrent chunks) are counted once.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - cover(kids[s.ID], s.Start, s.End)
	}
	return self
}

// cover returns the length of the union of the spans' intervals clipped to
// [lo, hi].
func cover(spans []span, lo, hi time.Duration) time.Duration {
	iv := make([][2]time.Duration, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration
	for _, v := range iv {
		if v[0] > end {
			end = v[0]
		}
		if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// layerTotals sums the spans of real ops (op > 0) by layer name.
type layerTotals struct {
	dur, self    map[string]time.Duration
	calls, rows  map[string]int
	failed       map[string]int
	opTime       time.Duration // summed op span durations
	forwardCover time.Duration // per op, time at least one worker forward ran
}

func summarize(spans []span) layerTotals {
	lt := layerTotals{
		dur: map[string]time.Duration{}, self: map[string]time.Duration{},
		calls: map[string]int{}, rows: map[string]int{}, failed: map[string]int{},
	}
	var live []span
	for _, s := range spans {
		if s.Op > 0 {
			live = append(live, s)
		}
	}
	self := selfTimes(live)
	forwards := map[int64][]span{}
	opSpans := map[int64]span{}
	for _, s := range live {
		lt.dur[s.Name] += s.End - s.Start
		lt.self[s.Name] += self[s.ID]
		lt.calls[s.Name]++
		lt.rows[s.Name] += s.Rows
		if s.Failed {
			lt.failed[s.Name]++
		}
		switch s.Name {
		case spanOp:
			lt.opTime += s.End - s.Start
			opSpans[s.Op] = s
		case spanForward:
			forwards[s.Op] = append(forwards[s.Op], s)
		}
	}
	for op, fs := range forwards {
		o := opSpans[op]
		lt.forwardCover += cover(fs, o.Start, o.End)
	}
	return lt
}

// layerOrder names each span's layer in the self-time table.
var layerOrder = []struct{ span, layer string }{
	{spanOp, "benchmark op loop"},
	{spanInterpret, "core (+ sample, mat)"},
	{spanClient, "api.Client codec"},
	{spanClientRT, "net client->router"},
	{spanRouter, "api.Server router codec"},
	{spanShard, "api.Shard dispatch"},
	{spanBackendRT, "net router->worker"},
	{spanWorker, "api.Server worker codec"},
	{spanForward, "nn forward"},
}

// printShares writes each layer's self time as a share of op wall time,
// largest first, and names the largest.
func printShares(out io.Writer, lt layerTotals) {
	type row struct {
		layer string
		share float64
	}
	var rows []row
	for _, l := range layerOrder {
		rows = append(rows, row{l.layer, float64(lt.self[l.span]) / float64(lt.opTime)})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].share > rows[j].share })
	fmt.Fprintln(out, "# self time by layer, share of op wall time (concurrent chunks can sum past 1):")
	for _, r := range rows {
		fmt.Fprintf(out, "#   %-26s %7.2f%%\n", r.layer, 100*r.share)
	}
	fmt.Fprintf(out, "# largest self-time share: %s\n", rows[0].layer)
}
