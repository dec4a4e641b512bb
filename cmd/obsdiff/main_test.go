package main

import "testing"

func TestRuleParsing(t *testing.T) {
	for _, tc := range []struct {
		in         string
		pattern    string
		spec       string
		dir        int
		isRel      bool
		rel, absol float64
	}{
		{in: "x==", pattern: "x", spec: "="},
		{in: "x=", pattern: "x", spec: "="},
		{in: "x=+10%", pattern: "x", spec: "+10%", dir: +1, isRel: true, rel: 0.10},
		{in: "x=-2%", pattern: "x", spec: "-2%", dir: -1, isRel: true, rel: 0.02},
		{in: "x=+0", pattern: "x", spec: "+0", dir: +1},
		{in: "*=skip", pattern: "*", spec: "skip"},
		{in: "reconcile_drift==", pattern: "reconcile_drift", spec: "="},
	} {
		var rl ruleList
		if err := rl.Set(tc.in); err != nil {
			t.Errorf("Set(%q): %v", tc.in, err)
			continue
		}
		got := rl[0]
		if got.pattern != tc.pattern || got.spec != tc.spec || got.dir != tc.dir ||
			got.isRel != tc.isRel || got.rel != tc.rel || got.abs != tc.absol {
			t.Errorf("Set(%q) = %+v, want pattern %q spec %q dir %d rel %v/%v abs %v",
				tc.in, got, tc.pattern, tc.spec, tc.dir, tc.isRel, tc.rel, tc.absol)
		}
	}
	for _, bad := range []string{"x", "=x", "x=10%", "x=+abc", "[=+1"} {
		var rl ruleList
		if err := rl.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted a malformed rule", bad)
		}
	}
}

func TestDiffGates(t *testing.T) {
	rules := func(specs ...string) ruleList {
		var rl ruleList
		for _, s := range specs {
			if err := rl.Set(s); err != nil {
				t.Fatal(err)
			}
		}
		return rl
	}
	for _, tc := range []struct {
		name     string
		rules    []string
		old, cur map[string]float64
		want     int
	}{
		{"exact drift 0 to 3 fails", []string{"reconcile_drift=="},
			map[string]float64{"reconcile_drift": 0}, map[string]float64{"reconcile_drift": 3}, 1},
		{"exact equal passes", []string{"reconcile_drift=="},
			map[string]float64{"reconcile_drift": 0}, map[string]float64{"reconcile_drift": 0}, 0},
		{"single = is exact too", []string{"requests="},
			map[string]float64{"requests": 24}, map[string]float64{"requests": 23}, 1},
		{"exact gate on a nested key's final segment", []string{"*.tests=="},
			map[string]float64{"runs.n8.tests": 256}, map[string]float64{"runs.n8.tests": 255}, 1},
		{"increase within +10% passes", []string{"shed_rate=+10%"},
			map[string]float64{"shed_rate": 100}, map[string]float64{"shed_rate": 109}, 0},
		{"increase past +10% fails", []string{"shed_rate=+10%"},
			map[string]float64{"shed_rate": 100}, map[string]float64{"shed_rate": 111}, 1},
		{"drop within -2% passes", []string{"hit_rate=-2%"},
			map[string]float64{"hit_rate": 1}, map[string]float64{"hit_rate": 0.99}, 0},
		{"drop past -2% fails", []string{"hit_rate=-2%"},
			map[string]float64{"hit_rate": 1}, map[string]float64{"hit_rate": 0.97}, 1},
		{"skip-all after a gate leaves the gate live", []string{"reconcile_drift==", "*=skip"},
			map[string]float64{"reconcile_drift": 0, "p99_ns": 1}, map[string]float64{"reconcile_drift": 3, "p99_ns": 9}, 1},
		{"skip-all silences everything else", []string{"*=skip"},
			map[string]float64{"p99_ns": 1}, map[string]float64{"p99_ns": 9}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := diff(tc.old, tc.cur, rules(tc.rules...), nil, 0.10); got != tc.want {
				t.Fatalf("diff exit = %d, want %d", got, tc.want)
			}
		})
	}
}
