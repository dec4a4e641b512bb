// Command obsdiff is the regression watchdog over the observability
// artifacts: it diffs two run reports or BENCH_*.json files metric by
// metric and exits non-zero when a gated metric regresses past its
// tolerance.
//
//	obsdiff [-rule pattern=spec]... [-ignore pattern]... old.json new.json
//	obsdiff -validate-prom metrics.txt
//
// Both inputs are flattened to dotted numeric leaves (arrays index by their
// element's "name" field when present, so report rows keep stable keys when
// reordered). Each leaf is then matched against the rule set:
//
//	-rule 'reconcile_drift=+0'     any increase fails
//	-rule 'cache_hit_rate=-2%'     a drop of more than 2% fails
//	-rule 'shed_rate=+25%'         an increase of more than 25% fails
//	-rule 'p99_ns=skip'            not even reported
//	-rule 'requests=='             must match exactly
//
// Patterns are path.Match globs tried against the full dotted key and its
// final segment. Leaves matching no rule are informational: changes beyond
// -tolerance are printed but never fail the run. Timing metrics should stay
// informational in CI (they are machine-dependent); gate counts, rates and
// drift instead.
//
// With -validate-prom, the arguments are Prometheus text-exposition files
// ("-" = stdin) checked against the format rules (TYPE declarations, sample
// syntax, histogram bucket cumulativity); this is what the CI telemetry
// lane runs over the daemon's /metrics?format=prom scrape.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"

	"stringloops/internal/obs"
)

type rule struct {
	pattern string
	spec    string  // "=", "skip", or signed tolerance
	rel     float64 // relative tolerance for % specs
	abs     float64 // absolute tolerance for plain specs
	isRel   bool
	dir     int // +1: increase bad, -1: decrease bad, 0: exact/skip
}

type ruleList []rule

func (r *ruleList) String() string { return "" }

// Set parses one pattern=spec rule, splitting at the first '=': patterns
// never contain one, so 'x==' is pattern x with the exact spec '='.
func (r *ruleList) Set(s string) error {
	eq := strings.Index(s, "=")
	if eq <= 0 {
		return fmt.Errorf("rule %q: want pattern=spec", s)
	}
	pat, spec := s[:eq], s[eq+1:]
	if _, err := path.Match(pat, "x"); err != nil {
		return fmt.Errorf("rule %q: bad pattern: %v", s, err)
	}
	ru := rule{pattern: pat, spec: spec}
	switch spec {
	case "", "=":
		ru.spec = "="
	case "skip":
	default:
		if spec[0] != '+' && spec[0] != '-' {
			return fmt.Errorf("rule %q: spec wants =, skip, or a signed tolerance like +10%% or -0", s)
		}
		ru.dir = +1
		if spec[0] == '-' {
			ru.dir = -1
		}
		num := spec[1:]
		if strings.HasSuffix(num, "%") {
			ru.isRel = true
			num = strings.TrimSuffix(num, "%")
		}
		v, err := strconv.ParseFloat(num, 64)
		if err != nil || v < 0 {
			return fmt.Errorf("rule %q: bad tolerance %q", s, spec)
		}
		if ru.isRel {
			ru.rel = v / 100
		} else {
			ru.abs = v
		}
	}
	*r = append(*r, ru)
	return nil
}

type strList []string

func (s *strList) String() string     { return strings.Join(*s, ",") }
func (s *strList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var rules ruleList
	var ignores strList
	tolerance := flag.Float64("tolerance", 0.10, "relative change past which an ungated metric is reported (informational)")
	validateProm := flag.Bool("validate-prom", false, "validate Prometheus exposition files instead of diffing reports ('-' = stdin)")
	flag.Var(&rules, "rule", "gate rule pattern=spec (repeatable); spec: '=', 'skip', '+10%', '-0', ...")
	flag.Var(&ignores, "ignore", "glob of metric keys to drop entirely (repeatable)")
	flag.Parse()

	if *validateProm {
		os.Exit(runValidateProm(flag.Args()))
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: obsdiff [-rule pattern=spec]... old.json new.json\n       obsdiff -validate-prom metrics.txt")
		os.Exit(2)
	}
	old, err := loadFlat(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "obsdiff: %v\n", err)
		os.Exit(2)
	}
	cur, err := loadFlat(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "obsdiff: %v\n", err)
		os.Exit(2)
	}
	os.Exit(diff(old, cur, rules, ignores, *tolerance))
}

func runValidateProm(args []string) int {
	if len(args) == 0 {
		args = []string{"-"}
	}
	code := 0
	for _, arg := range args {
		var data []byte
		var err error
		if arg == "-" {
			data, err = io.ReadAll(os.Stdin)
		} else {
			data, err = os.ReadFile(arg)
		}
		if err == nil {
			err = obs.ValidatePrometheus(data)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "obsdiff: %s: %v\n", arg, err)
			code = 1
			continue
		}
		fmt.Printf("%s: valid exposition format\n", arg)
	}
	return code
}

// loadFlat reads a JSON file and flattens every numeric leaf to a dotted
// key. Array elements carrying a "name" field are keyed by it — report rows
// and bench runs then diff by identity, not position.
func loadFlat(file string) (map[string]float64, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var root any
	if err := json.Unmarshal(data, &root); err != nil {
		return nil, fmt.Errorf("%s: %v", file, err)
	}
	out := map[string]float64{}
	flatten("", root, out)
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no numeric leaves", file)
	}
	return out, nil
}

func flatten(prefix string, v any, out map[string]float64) {
	switch x := v.(type) {
	case float64:
		out[prefix] = x
	case bool:
		// Booleans diff as 0/1 so gates like drain_clean== work.
		if x {
			out[prefix] = 1
		} else {
			out[prefix] = 0
		}
	case map[string]any:
		for k, child := range x {
			flatten(join(prefix, k), child, out)
		}
	case []any:
		for i, child := range x {
			key := strconv.Itoa(i)
			if m, ok := child.(map[string]any); ok {
				if name, ok := m["name"].(string); ok && name != "" {
					key = name
				} else if name, ok := m["loop"].(string); ok && name != "" {
					key = name
				}
			}
			flatten(join(prefix, key), child, out)
		}
	}
}

func join(prefix, k string) string {
	if prefix == "" {
		return k
	}
	return prefix + "." + k
}

func matches(pattern, key string) bool {
	if ok, _ := path.Match(pattern, key); ok {
		return true
	}
	if i := strings.LastIndex(key, "."); i >= 0 {
		if ok, _ := path.Match(pattern, key[i+1:]); ok {
			return true
		}
	}
	return false
}

func findRule(rules ruleList, key string) *rule {
	for i := range rules {
		if matches(rules[i].pattern, key) {
			return &rules[i]
		}
	}
	return nil
}

func diff(old, cur map[string]float64, rules ruleList, ignores strList, tolerance float64) int {
	keys := map[string]bool{}
	for k := range old {
		keys[k] = true
	}
	for k := range cur {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	regressions, infos := 0, 0
	for _, k := range sorted {
		skip := false
		for _, ig := range ignores {
			if matches(ig, k) {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		ru := findRule(rules, k)
		if ru != nil && ru.spec == "skip" {
			continue
		}
		ov, ook := old[k]
		nv, nok := cur[k]
		switch {
		case !ook:
			fmt.Printf("  new    %-48s %v\n", k, nv)
			infos++
			continue
		case !nok:
			if ru != nil {
				fmt.Printf("FAIL   %-48s gated metric missing from %s\n", k, flag.Arg(1))
				regressions++
			} else {
				fmt.Printf("  gone   %-48s was %v\n", k, ov)
				infos++
			}
			continue
		}
		delta := nv - ov
		rel := 0.0
		if ov != 0 {
			rel = delta / ov
		} else if delta != 0 {
			rel = 1 // from zero: treat any change as 100%
		}
		if ru == nil {
			if abs(rel) > tolerance {
				fmt.Printf("  drift  %-48s %v -> %v (%+.1f%%)\n", k, ov, nv, rel*100)
				infos++
			}
			continue
		}
		bad := false
		switch {
		case ru.spec == "=":
			bad = ov != nv
		case ru.dir > 0 && delta > 0:
			bad = (ru.isRel && rel > ru.rel) || (!ru.isRel && delta > ru.abs)
		case ru.dir < 0 && delta < 0:
			bad = (ru.isRel && -rel > ru.rel) || (!ru.isRel && -delta > ru.abs)
		}
		if bad {
			fmt.Printf("FAIL   %-48s %v -> %v (%+.1f%%, rule %s=%s)\n", k, ov, nv, rel*100, ru.pattern, ru.spec)
			regressions++
		}
	}
	if regressions > 0 {
		fmt.Printf("obsdiff: %d regression(s), %d informational change(s)\n", regressions, infos)
		return 1
	}
	fmt.Printf("obsdiff: ok (%d informational change(s))\n", infos)
	return 0
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
