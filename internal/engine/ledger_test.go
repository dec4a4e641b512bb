package engine

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"stringloops/internal/obs"
)

// ledgerCases spells out, independently of the ledger table, the Spend
// field and canonical metric name each counter must map to.
var ledgerCases = [numCounters]struct {
	field  string
	metric string
}{
	Conflicts:        {"Conflicts", "sat.conflicts"},
	Propagations:     {"Propagations", "sat.propagations"},
	Forks:            {"Forks", "symex.forks"},
	Nodes:            {"Nodes", "bv.nodes"},
	CacheHits:        {"QCacheHits", "qcache.hits"},
	CacheMisses:      {"QCacheMisses", "qcache.misses"},
	DiskHits:         {"DiskHits", "diskcache.hits"},
	DiskMisses:       {"DiskMisses", "diskcache.misses"},
	DiskEvictions:    {"DiskEvictions", "diskcache.evictions"},
	VNHits:           {"VNHits", "bv.vn_hits"},
	IteFusions:       {"IteFusions", "bv.ite_fusions"},
	BlastHits:        {"BlastHits", "bv.blast_hits"},
	SimplifyCalls:    {"SimplifyCalls", "bv.simplify_calls"},
	SimplifyNodesIn:  {"SimplifyNodesIn", "bv.simplify_nodes_in"},
	SimplifyNodesOut: {"SimplifyNodesOut", "bv.simplify_nodes_out"},
	Merges:           {"Merges", "symex.merges"},
	MergeItes:        {"MergeItes", "symex.merge_ites"},
	Decisions:        {"Decisions", "sat.decisions"},
	CacheQueries:     {"QCacheQueries", "qcache.queries"},
	CacheGroups:      {"QCacheGroups", "qcache.groups"},
	CacheRebuilds:    {"QCacheRebuilds", "qcache.rebuilds"},
	SymexRuns:        {"SymexRuns", "symex.runs"},
	Paths:            {"Paths", "symex.paths"},
	Steps:            {"Steps", "symex.steps"},
	SolverQueries:    {"SolverQueries", "symex.solver_queries"},
	Skeletons:        {"Skeletons", "cegis.skeletons"},
	Candidates:       {"Candidates", "cegis.candidates"},
	Counterexamples:  {"Counterexamples", "cegis.counterexamples"},
	VerifyQueries:    {"VerifyQueries", "cegis.verify_queries"},
	ArgSolverCalls:   {"ArgSolverCalls", "cegis.arg_solver_calls"},
}

func TestLedgerPerCounter(t *testing.T) {
	for c := Counter(0); c < numCounters; c++ {
		tc := ledgerCases[c]
		t.Run(tc.field, func(t *testing.T) {
			if ledger[c].metric != tc.metric {
				t.Fatalf("metric = %q, want %q", ledger[c].metric, tc.metric)
			}
			m := obs.NewMetrics()
			b := NewBudget(nil, Limits{}).SetObs(nil, m)
			b.Add(c, 0) // zero charges are no-ops
			b.Add(c, 7)
			b.Add(c, 5)
			if got := b.Count(c); got != 12 {
				t.Fatalf("Count = %d, want 12", got)
			}

			// Spend carries the charge in exactly this counter's field.
			spend := b.Spend()
			sv := reflect.ValueOf(spend)
			for i := 0; i < sv.NumField(); i++ {
				want := int64(0)
				if sv.Type().Field(i).Name == tc.field {
					want = 12
				}
				if got := sv.Field(i).Int(); got != want {
					t.Errorf("Spend.%s = %d, want %d", sv.Type().Field(i).Name, got, want)
				}
			}

			// The mirror reconciles; a one-unit drift on either side is caught
			// and names the counter.
			counters := m.Snapshot().Counters
			if err := spend.Reconcile(counters); err != nil {
				t.Fatalf("clean reconcile: %v", err)
			}
			counters[tc.metric]++
			err := spend.Reconcile(counters)
			if err == nil || !strings.Contains(err.Error(), tc.metric) {
				t.Fatalf("metrics-side drift: err = %v, want one naming %s", err, tc.metric)
			}
			counters[tc.metric]--
			b.Add(c, 1)
			if err := b.Spend().Reconcile(counters); err == nil {
				t.Fatal("budget-side drift went unreported")
			}

			// The mirrored counter is exposed as a Prometheus series.
			var prom bytes.Buffer
			if err := m.Snapshot().WritePrometheus(&prom); err != nil {
				t.Fatal(err)
			}
			series := "loopsum_" + strings.ReplaceAll(tc.metric, ".", "_") + "_total"
			if !strings.Contains(prom.String(), "# TYPE "+series+" counter\n") {
				t.Fatalf("no %s series in exposition:\n%s", series, prom.String())
			}
		})
	}
}

// TestLedgerCoversSpend: every Spend field is the target of exactly one
// ledger row, so Add, Reconcile and String can never skip a field.
func TestLedgerCoversSpend(t *testing.T) {
	var s Spend
	sv := reflect.ValueOf(&s).Elem()
	if sv.NumField() != int(numCounters) {
		t.Fatalf("Spend has %d fields, ledger %d counters", sv.NumField(), numCounters)
	}
	for i := 0; i < sv.NumField(); i++ {
		addr := sv.Field(i).Addr().Interface().(*int64)
		rows := 0
		for _, row := range ledger {
			if row.field(&s) == addr {
				rows++
			}
		}
		if rows != 1 {
			t.Errorf("Spend.%s is the field of %d ledger rows, want 1", sv.Type().Field(i).Name, rows)
		}
	}
}

// TestSpendJSONGolden pins the wire form: with the two simplifier node
// counters and the solver layers' counters zero, Spend marshals byte for
// byte like the service protocol's original fifteen-counter record, and the
// zero Spend marshals empty.
func TestSpendJSONGolden(t *testing.T) {
	s := Spend{
		Conflicts: 1, Propagations: 2, Forks: 3, Nodes: 4, QCacheHits: 5, QCacheMisses: 6,
		DiskHits: 7, DiskMisses: 8, DiskEvictions: 9, VNHits: 10, IteFusions: 11,
		BlastHits: 12, SimplifyCalls: 13, Merges: 14, MergeItes: 15,
	}
	const golden = `{"conflicts":1,"propagations":2,"forks":3,"nodes":4,"qcache_hits":5,` +
		`"qcache_misses":6,"disk_hits":7,"disk_misses":8,"disk_evictions":9,"vn_hits":10,` +
		`"ite_fusions":11,"blast_hits":12,"simplify_calls":13,"merges":14,"merge_ites":15}`
	got, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != golden {
		t.Fatalf("Spend JSON\n got %s\nwant %s", got, golden)
	}
	s.SimplifyNodesIn, s.SimplifyNodesOut = 16, 17
	got, _ = json.Marshal(s)
	if !strings.Contains(string(got), `"simplify_nodes_in":16,"simplify_nodes_out":17`) {
		t.Fatalf("Spend JSON lacks the simplifier node counters: %s", got)
	}
	// The solver layers' work counters follow, each omitempty, so a response
	// that spends none of them keeps the original bytes above.
	s = Spend{Decisions: 18, QCacheQueries: 19, QCacheGroups: 20, QCacheRebuilds: 21, SymexRuns: 22,
		Paths: 23, Steps: 24, SolverQueries: 25, Skeletons: 26, Candidates: 27, Counterexamples: 28,
		VerifyQueries: 29, ArgSolverCalls: 30}
	const layers = `{"decisions":18,"qcache_queries":19,"qcache_groups":20,"qcache_rebuilds":21,` +
		`"symex_runs":22,"paths":23,"steps":24,"solver_queries":25,"skeletons":26,"candidates":27,` +
		`"counterexamples":28,"verify_queries":29,"arg_solver_calls":30}`
	if got, _ = json.Marshal(s); string(got) != layers {
		t.Fatalf("Spend JSON\n got %s\nwant %s", got, layers)
	}
	if got, _ := json.Marshal(Spend{}); string(got) != "{}" {
		t.Fatalf("zero Spend JSON = %s, want {}", got)
	}
}

func TestSpendAddAndString(t *testing.T) {
	var s Spend
	s.Add(Spend{Conflicts: 2, Merges: 1})
	s.Add(Spend{Conflicts: 3, SimplifyNodesIn: 4})
	if s != (Spend{Conflicts: 5, Merges: 1, SimplifyNodesIn: 4}) {
		t.Fatalf("Add = %+v", s)
	}
	if got, want := s.String(), "conflicts=5 simpin=4 merges=1"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if got := (Spend{}).String(); got != "" {
		t.Fatalf("zero Spend String = %q, want empty", got)
	}
}
