package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"rpcvalet/internal/cluster"
	"rpcvalet/internal/core"
	"rpcvalet/internal/machine"
	"rpcvalet/internal/stats"
)

// machineChecks checks one machine run's conservation: every target
// completion happened, each measured completion has a latency sample, the
// run did not time out, and the tail met the workload's SLO (so the
// reported throughput is throughput under the SLO).
func machineChecks(cfg machine.Config, res machine.Result) []string {
	var p []string
	if want := cfg.Warmup + cfg.Measure; res.Completed != want {
		p = append(p, fmt.Sprintf("machine completed %d, want warmup+measure %d", res.Completed, want))
	}
	if res.Latency.Count != cfg.Measure {
		p = append(p, fmt.Sprintf("machine latency count %d, want measure %d", res.Latency.Count, cfg.Measure))
	}
	if res.TimedOut {
		p = append(p, "machine run timed out")
	}
	if !res.MeetsSLO {
		p = append(p, fmt.Sprintf("machine p99 %v ns misses the %v ns SLO", res.Latency.P99, res.SLONanos))
	}
	return p
}

// clusterChecks adds the cluster's per-node and per-rack conservation.
func clusterChecks(cfg cluster.Config, res cluster.Result) []string {
	var p []string
	if want := cfg.Warmup + cfg.Measure; res.Completed != want {
		p = append(p, fmt.Sprintf("cluster completed %d, want warmup+measure %d", res.Completed, want))
	}
	if n := sum(res.NodeCompleted); n != res.Completed {
		p = append(p, fmt.Sprintf("node completions sum to %d, completed %d", n, res.Completed))
	}
	if cfg.Racks > 0 {
		if n := sum(res.RackCompleted); n != res.Completed {
			p = append(p, fmt.Sprintf("rack completions sum to %d, completed %d", n, res.Completed))
		}
	}
	if res.Latency.Count != cfg.Measure {
		p = append(p, fmt.Sprintf("cluster latency count %d, want measure %d", res.Latency.Count, cfg.Measure))
	}
	if res.TimedOut {
		p = append(p, "cluster run timed out")
	}
	if !res.MeetsSLO {
		p = append(p, fmt.Sprintf("cluster p99 %v ns misses the %v ns SLO", res.Latency.P99, res.SLONanos))
	}
	return p
}

func sum(v []int) int {
	n := 0
	for _, x := range v {
		n += x
	}
	return n
}

// fingerprint accumulates modelled values in a fixed order, every float
// with all its digits, and hashes them.
type fingerprint struct{ b strings.Builder }

func (f *fingerprint) add(name string, v ...float64) {
	f.b.WriteString(name)
	for _, x := range v {
		f.b.WriteByte(' ')
		f.b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
	}
	f.b.WriteByte('\n')
}

func (f *fingerprint) ints(name string, v []int) {
	fv := make([]float64, len(v))
	for i, x := range v {
		fv[i] = float64(x)
	}
	f.add(name, fv...)
}

func (f *fingerprint) summary(name string, s stats.Summary) {
	f.add(name, float64(s.Count), s.Mean, s.Min, s.Max, s.P50, s.P90, s.P99, s.P999, s.StdDev)
}

func (f *fingerprint) sum() string {
	h := sha256.Sum256([]byte(f.b.String()))
	return hex.EncodeToString(h[:8])
}

// machineDigest fingerprints a machine run: latency summary, throughput,
// completions and the NI flow-control counters.
func machineDigest(res machine.Result) string {
	var f fingerprint
	addMachine(&f, res)
	return f.sum()
}

func addMachine(f *fingerprint, res machine.Result) {
	f.summary("latency", res.Latency)
	f.add("throughput", res.ThroughputMRPS, res.ServiceMeanNanos)
	f.add("completed", float64(res.Completed))
	f.add("ni", float64(res.BlockedArrivals), float64(res.ReplyStalls))
}

// clusterDigest fingerprints a cluster run: latency summary, throughput,
// imbalance and per-node and per-rack completions.
func clusterDigest(res cluster.Result) string {
	var f fingerprint
	f.summary("latency", res.Latency)
	f.add("throughput", res.ThroughputMRPS, res.Imbalance)
	f.add("completed", float64(res.Completed))
	f.ints("nodes", res.NodeCompleted)
	f.ints("racks", res.RackCompleted)
	return f.sum()
}

// sweepDigest fingerprints every curve point, each refined knee, and the
// re-run knee cell.
func sweepDigest(curves []core.Curve, knee machine.Result) string {
	var f fingerprint
	point := func(p core.CurvePoint) {
		meets := 0.0
		if p.MeetsSLO {
			meets = 1
		}
		f.add("point", p.RateMRPS, p.ThroughputMRPS, p.P50, p.P99, p.Mean, p.SLONanos, p.ServiceMean, meets)
	}
	for _, c := range curves {
		f.add(c.Label)
		for _, p := range c.Points {
			point(p)
		}
		if c.Knee != nil {
			point(*c.Knee)
		}
	}
	addMachine(&f, knee)
	return f.sum()
}

// claim is an allowed band for one of Fig 7a's measured values. The bands
// are the ones the figure harness (internal/core, fig7a) checks.
type claim struct {
	name   string
	lo, hi float64
}

var fig7aClaims = []claim{
	{"herd_service_ns", 480, 620},
	{"1x16_vs_4x4_slo_mrps", 1.0, 1.5},
	{"1x16_vs_16x1_slo_mrps", 1.02, 1.8},
	{"1x16_vs_16x1_max_tail_ratio", 1.5, 1e9},
}

// fig7aValues computes the values Fig 7a's claims are made on, from curves
// in sweepModes order (16x1, 4x4, 1x16).
func fig7aValues(curves []core.Curve) map[string]float64 {
	pt, gr, sq := curves[0], curves[1], curves[2]
	ratio := func(a, b float64) float64 {
		if b <= 0 {
			return 0
		}
		return a / b
	}
	return map[string]float64{
		"herd_service_ns":             sq.Points[0].ServiceMean,
		"1x16_vs_4x4_slo_mrps":        ratio(sq.ThroughputUnderSLO(), gr.ThroughputUnderSLO()),
		"1x16_vs_16x1_slo_mrps":       ratio(sq.ThroughputUnderSLO(), pt.ThroughputUnderSLO()),
		"1x16_vs_16x1_max_tail_ratio": sq.MaxTailRatioVs(pt),
	}
}

// checkClaims reports every claim whose value falls outside its band.
func checkClaims(values map[string]float64, claims []claim) []string {
	var p []string
	for _, c := range claims {
		v, ok := values[c.name]
		if !ok || v < c.lo || v > c.hi {
			p = append(p, fmt.Sprintf("claim %s = %v outside [%v, %v]", c.name, v, c.lo, c.hi))
		}
	}
	return p
}

// reference.json holds the modelled digests recorded at the default seed,
// per workload, at full size and at the self-test size.
//
//go:embed reference.json
var referenceJSON []byte

type referenceFile struct {
	Seed    uint64                       `json:"seed"`
	Digests map[string]map[string]string `json:"digests"`
}

func referenceDigest(workload string, seed uint64, short bool) (string, bool) {
	var ref referenceFile
	if err := json.Unmarshal(referenceJSON, &ref); err != nil || seed != ref.Seed {
		return "", false
	}
	size := "full"
	if short {
		size = "short"
	}
	d, ok := ref.Digests[workload][size]
	return d, ok && d != ""
}
