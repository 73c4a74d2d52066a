package main

import (
	"fmt"
	"io"
)

// verdict is -compare's judgement of one end-to-end metric on one
// workload.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegression verdict = "REGRESSION"
	verdictUnresolved verdict = "unresolved"
	verdictMissing    verdict = "missing"
)

// judge compares the candidate's median with the baseline's against the
// metric's bound. A metric whose run-to-run spread, on either side, is
// wider than its bound cannot resolve a change of that size: it is
// reported as unresolved, not as unchanged.
func judge(d metricDef, base, cand summary) (verdict, float64) {
	worse := 0.0 // share of the baseline median by which the candidate is worse
	switch {
	case base.Median == 0 && cand.Median == 0:
	case base.Median == 0:
		worse = 1
		if d.higher {
			worse = -1
		}
	case d.higher:
		worse = (base.Median - cand.Median) / base.Median
	default:
		worse = (cand.Median - base.Median) / base.Median
	}
	if d.bound == 0 { // any increase is a regression
		if worse > 0 {
			return verdictRegression, worse
		}
		return verdictOK, worse
	}
	if worse > d.bound {
		return verdictRegression, worse
	}
	if base.spread() > d.bound || cand.spread() > d.bound {
		return verdictUnresolved, worse
	}
	return verdictOK, worse
}

// compareResults prints per-workload, per-metric deltas of cand against
// base and reports whether any end-to-end metric regressed.
func compareResults(w io.Writer, base, cand *resultFile) (regressed bool, err error) {
	be, ce := base.Env, cand.Env
	be.Commit, ce.Commit = "", ""
	if be != ce {
		return false, fmt.Errorf("results were taken under different conditions and cannot be compared:\n  base: %+v\n  cand: %+v", base.Env, cand.Env)
	}
	fmt.Fprintf(w, "base %s  →  candidate %s   (%s, %d runs × %d s, seed %d)\n", base.Env.Commit, cand.Env.Commit, be.Scale, be.Runs, be.Seconds, be.Seed)
	candBy := map[string]workloadResult{}
	for _, wr := range cand.Workloads {
		candBy[wr.Name] = wr
	}
	for _, bw := range base.Workloads {
		cw, ok := candBy[bw.Name]
		fmt.Fprintf(w, "\n%s\n", bw.Name)
		if !ok {
			fmt.Fprintf(w, "  %s in candidate\n", verdictMissing)
			regressed = true
			continue
		}
		fmt.Fprintf(w, "  %-22s %14s %14s %8s %7s %7s %6s  %s\n", "metric", "base", "candidate", "worse", "spreadB", "spreadC", "bound", "verdict")
		for _, d := range endToEnd {
			if d.only != "" && d.only != bw.Name {
				continue
			}
			bs, okb := bw.EndToEnd[d.name]
			cs, okc := cw.EndToEnd[d.name]
			if !okb || !okc {
				fmt.Fprintf(w, "  %-22s %s\n", d.name, verdictMissing)
				regressed = true
				continue
			}
			v, worse := judge(d, bs, cs)
			if v == verdictRegression {
				regressed = true
			}
			fmt.Fprintf(w, "  %-22s %14.4f %14.4f %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				d.name, bs.Median, cs.Median, 100*worse, 100*bs.spread(), 100*cs.spread(), 100*d.bound, v)
		}
	}
	return regressed, nil
}
