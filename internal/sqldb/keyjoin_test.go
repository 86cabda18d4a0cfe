package sqldb

import (
	"sort"
	"strings"
	"testing"
)

// keyJoinDB holds two TEXT-keyed tables whose IRI-style renderings
// ('p/' || lic.id and 'p/' || task.id || '/task/' || task.name) can collide:
// no column type separates them, so only the generated strings decide.
func keyJoinDB(t *testing.T, profile Profile) *Database {
	t.Helper()
	db := NewDatabase("keyjoin")
	db.Profile = profile
	for _, def := range []*TableDef{
		{Name: "lic", Columns: []Column{{Name: "id", Type: TText}}},
		{Name: "task", Columns: []Column{{Name: "id", Type: TText}, {Name: "name", Type: TText}}},
	} {
		if _, err := db.CreateTable(def); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []Value{NewString("1"), NewString("2"), NewString("2/task/x"),
		NewString("2/task/task/x"), NewString("/task/"), NewString("2/task/x"), Null} {
		if err := db.Insert("lic", Row{id}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range [][2]Value{
		{NewString("1"), NewString("a")}, {NewString("2"), NewString("x")},
		{NewString("2/task"), NewString("x")}, {NewString(""), NewString("")},
		{Null, NewString("z")}, {NewString("2"), Null},
	} {
		if err := db.Insert("task", Row{r[0], r[1]}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestComputedKeyJoin checks that an equality between expressions over
// one join side each plans as an equi join on computed keys (hash join,
// or merge join under the sort-merge profile) instead of a nested loop,
// and returns exactly the rows the nested loop over the same predicate
// does — for comma joins and explicit JOINs, with and without a residual,
// on both executors.
func TestComputedKeyJoin(t *testing.T) {
	const lhs = "'p/' || l.id"
	const rhs = "'p/' || t.id || '/task/' || t.name"
	shapes := []struct{ name, lifted, loop string }{
		{"comma join",
			"SELECT l.id, t.id, t.name FROM lic l, task t WHERE " + lhs + " = " + rhs,
			"SELECT l.id, t.id, t.name FROM lic l, task t WHERE NOT (" + lhs + " <> " + rhs + ")"},
		{"sides swapped",
			"SELECT l.id, t.id, t.name FROM lic l, task t WHERE " + rhs + " = " + lhs,
			"SELECT l.id, t.id, t.name FROM lic l, task t WHERE NOT (" + rhs + " <> " + lhs + ")"},
		{"explicit join",
			"SELECT l.id, t.id, t.name FROM lic l JOIN task t ON " + lhs + " = " + rhs,
			"SELECT l.id, t.id, t.name FROM lic l JOIN task t ON NOT (" + lhs + " <> " + rhs + ")"},
		{"with residual",
			"SELECT l.id, t.name FROM lic l, task t WHERE " + lhs + " = " + rhs + " AND t.name <> 'a'",
			"SELECT l.id, t.name FROM lic l, task t WHERE NOT (" + lhs + " <> " + rhs + ") AND t.name <> 'a'"},
		{"star",
			"SELECT * FROM lic l, task t WHERE " + lhs + " = " + rhs,
			"SELECT * FROM lic l, task t WHERE NOT (" + lhs + " <> " + rhs + ")"},
	}
	for _, profile := range []Profile{ProfileHashJoin, ProfileSortMerge} {
		db := keyJoinDB(t, profile)
		for _, sh := range shapes {
			for _, batch := range []int{1, 0} {
				lifted, lstats := runKeyJoin(t, db, sh.lifted, batch)
				loop, nstats := runKeyJoin(t, db, sh.loop, batch)
				if strings.Join(lifted, "\n") != strings.Join(loop, "\n") {
					t.Errorf("%s/%s/batch=%d: computed-key join\n%v\nnested loop\n%v", profile, sh.name, batch, lifted, loop)
				}
				if len(lifted) == 0 {
					t.Errorf("%s/%s: no rows; the fixture is vacuous", profile, sh.name)
				}
				if n := lstats.NestedLoopPairs.Load(); n != 0 {
					t.Errorf("%s/%s: computed-key join examined %d nested-loop pairs", profile, sh.name, n)
				}
				if nstats.NestedLoopPairs.Load() == 0 {
					t.Errorf("%s/%s: reference query did not nested-loop", profile, sh.name)
				}
			}
			_, prof, err := db.ProfileSelect(MustParse(sh.lifted))
			if err != nil {
				t.Fatal(err)
			}
			var ops []string
			var walk func(p *OpProfile)
			walk = func(p *OpProfile) {
				ops = append(ops, p.Op)
				for _, c := range p.Children {
					walk(c)
				}
			}
			walk(prof)
			plan := strings.Join(ops, ", ")
			want := "hash join"
			if profile == ProfileSortMerge {
				want = "merge join"
			}
			if !strings.Contains(plan, want) || strings.Contains(plan, "nested loop") {
				t.Errorf("%s/%s: plan does not use computed keys: %s", profile, sh.name, plan)
			}
			res, err := db.Query(sh.lifted)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range res.Columns {
				if c == computedKeyName {
					t.Errorf("%s/%s: hidden key column leaked into the output %v", profile, sh.name, res.Columns)
				}
			}
		}
	}
}

// runKeyJoin executes sql and returns its rows rendered and sorted, plus
// the execution counters.
func runKeyJoin(t *testing.T, db *Database, sql string, batch int) ([]string, *ExecStats) {
	t.Helper()
	stats := &ExecStats{}
	res, err := db.ExecSelectOpts(MustParse(sql), ExecOptions{BatchSize: batch, Stats: stats})
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out, stats
}
