package main

import (
	"context"
	"fmt"
	"io"
	"math"
)

// runCheck is the repeatability gate: every workload twice back to back,
// untraced and traced, same seed. It fails, after printing the spread
// table, if any end-to-end metric of the second set is worse than the
// first by more than the metric's own bound, or if any count — end-to-end
// or per-layer — differs at all.
func runCheck(ctx context.Context, o options, out io.Writer) error {
	bad := 0
	for _, w := range workloads {
		if o.workload != "" && o.workload != w.name {
			continue
		}
		var e2e, layer [2]result
		for set := 0; set < 2; set++ {
			var err error
			if e2e[set], err = child(ctx, o, w.name, o.seed, 0, nil); err != nil {
				return err
			}
			if layer[set], err = child(ctx, o, w.name, o.seed, 1, nil); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "\n%s\n%-34s %14s %14s %9s %7s\n", w.name, "metric", "set 1", "set 2", "worse by", "bound")
		for _, d := range endToEnd {
			a, b := e2e[0].Metrics[d.Name].Value, e2e[1].Metrics[d.Name].Value
			worse := (b - a) / math.Abs(a)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > d.Bound || (d.count && a != b) {
				verdict = "  FAIL"
				bad++
			}
			fmt.Fprintf(out, "%-34s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", d.Name, a, b, 100*worse, 100*d.Bound, verdict)
		}
		for _, d := range perLayer {
			a, b := layer[0].Metrics[d.Name].Value, layer[1].Metrics[d.Name].Value
			if d.count && a != b {
				fmt.Fprintf(out, "%-34s %14.6g %14.6g %9s %7s  FAIL\n", d.Name, a, b, "count", "exact")
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("check: %d metric(s) did not repeat", bad)
	}
	fmt.Fprintln(out, "\ncheck: both sets agree")
	return nil
}
