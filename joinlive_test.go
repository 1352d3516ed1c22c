package partopt

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"

	"partopt/internal/exec"
)

// A hash join gathers only the output columns something above it reads
// (column liveness); a column nothing reads reaches the operators above as
// NULL. These queries read join outputs in every way the derivation must
// see — a sort, a residual of an ancestor join, count(col) over a
// NULL-extended side, a Redistribute Motion into a second join, a
// projection — and each answer is checked against one computed in Go from
// the loaded rows, under both optimizers and at degenerate batch sizes.
//
// The data: sales (sale_id, date_id, k1, amount) over dates 0..239, amount
// NULL on every 13th sale; date_dim (date_id, month, moy) over dates
// 0..299, so months 25..30 have no sales; dim1 (k, tag) hashed on k, large
// enough that the optimizer redistributes a join's output to it instead
// of broadcasting dim1; dim2, dim1's first 200 rows, small enough to be
// broadcast into a join below the one that applies a residual.

const liveDims = 20000

type liveSale struct {
	id, date, k1 int64
	amount       Value
}

func liveRows() (sales []liveSale, month, moy map[int64]int64, tag map[int64]string) {
	for i := int64(0); i < 4800; i++ {
		s := liveSale{id: i, date: i % 240, k1: i % 200, amount: Float(float64(i % 97))}
		if i%13 == 0 {
			s.amount = Null
		}
		sales = append(sales, s)
	}
	month, moy, tag = map[int64]int64{}, map[int64]int64{}, map[int64]string{}
	for d := int64(0); d < 300; d++ {
		month[d], moy[d] = 1+d/10, 1+(d/10)%12
	}
	for k := int64(0); k < liveDims; k++ {
		tag[k] = fmt.Sprintf("t%d", k%5)
	}
	return sales, month, moy, tag
}

func liveEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := New(4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eng.MustCreateTable("sales", Columns("sale_id", TypeInt, "date_id", TypeInt, "k1", TypeInt, "amount", TypeFloat),
		DistributedBy("sale_id"), PartitionByRangeInt("date_id", 0, 240, 24))
	eng.MustCreateTable("date_dim", Columns("date_id", TypeInt, "month", TypeInt, "moy", TypeInt), Replicated())
	eng.MustCreateTable("dim1", Columns("k", TypeInt, "tag", TypeString), DistributedBy("k"))
	sales, month, moy, tag := liveRows()
	var rows [][]Value
	for _, s := range sales {
		rows = append(rows, []Value{Int(s.id), Int(s.date), Int(s.k1), s.amount})
	}
	if err := eng.InsertRows("sales", rows); err != nil {
		t.Fatalf("load sales: %v", err)
	}
	rows = nil
	for d := int64(0); d < 300; d++ {
		rows = append(rows, []Value{Int(d), Int(month[d]), Int(moy[d])})
	}
	if err := eng.InsertRows("date_dim", rows); err != nil {
		t.Fatalf("load date_dim: %v", err)
	}
	rows = nil
	for k := int64(0); k < liveDims; k++ {
		rows = append(rows, []Value{Int(k), String(tag[k])})
	}
	if err := eng.InsertRows("dim1", rows); err != nil {
		t.Fatalf("load dim1: %v", err)
	}
	eng.MustCreateTable("dim2", Columns("k", TypeInt, "tag", TypeString), DistributedBy("k"))
	if err := eng.InsertRows("dim2", rows[:200]); err != nil {
		t.Fatalf("load dim2: %v", err)
	}
	if err := eng.Analyze(); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return eng
}

// liveAcc folds count(*), sum(amount) and count(amount).
type liveAcc struct {
	n, nAmount int64
	sum        float64
}

func (a *liveAcc) add(amount Value) {
	a.n++
	if !amount.IsNull() {
		a.nAmount++
		a.sum += amount.Float()
	}
}

func (a *liveAcc) sumValue() Value {
	if a.nAmount == 0 {
		return Null
	}
	return Float(a.sum)
}

func TestJoinColumnLivenessGroundTruth(t *testing.T) {
	eng := liveEngine(t)
	sales, month, moy, tag := liveRows()
	byDate := map[int64][]liveSale{}
	for _, s := range sales {
		byDate[s.date] = append(byDate[s.date], s)
	}

	var ordered [][]Value
	for _, s := range sales {
		if m := month[s.date]; m >= 11 && m <= 14 {
			ordered = append(ordered, []Value{Int(s.id), Int(moy[s.date]), s.amount})
		}
	}
	sort.Slice(ordered, func(i, j int) bool {
		if a, b := ordered[i][1].Int(), ordered[j][1].Int(); a != b {
			return a < b
		}
		return ordered[i][0].Int() < ordered[j][0].Int()
	})

	var residual liveAcc
	for _, s := range sales {
		if tag[s.k1] == "t1" && s.id < moy[s.date]*400 {
			residual.add(s.amount)
		}
	}

	// A date of months 22..26 without sales is one NULL-extended row.
	var outer liveAcc
	for d := int64(0); d < 300; d++ {
		if m := month[d]; m < 22 || m > 26 {
			continue
		}
		if len(byDate[d]) == 0 {
			outer.add(Null)
		}
		for _, s := range byDate[d] {
			outer.add(s.amount)
		}
	}

	var redistributed liveAcc
	var projected [][]Value
	for _, s := range sales {
		if month[s.date] == 3 {
			redistributed.add(s.amount)
		}
		if m := month[s.date]; m >= 3 && m <= 4 {
			projected = append(projected, []Value{Int(moy[s.date])})
		}
	}

	cases := []struct {
		name, q string
		want    [][]Value
		ordered bool
		// shape must match Orca's EXPLAIN: the plan reads the
		// join output the way the case is about.
		shape string
	}{
		{"order by a build column",
			"SELECT s.sale_id, d.moy, s.amount FROM date_dim d, sales s WHERE d.date_id = s.date_id AND d.month BETWEEN 11 AND 14 ORDER BY 2, 1",
			ordered, true, `Sort[^\n]*\n(.*\n)*.*HashJoin`},
		{"residual on a column no aggregate reads",
			"SELECT count(*), sum(s.amount) FROM date_dim d, dim2 b, sales s WHERE d.date_id = s.date_id AND b.k = s.k1 AND b.tag = 't1' AND s.sale_id < d.moy * 400",
			[][]Value{{Int(residual.n), residual.sumValue()}}, false, `HashJoin \([^\n]*s\.sale_id <[^\n]*\n(.*\n)*.*HashJoin`},
		{"left join read through count(col)",
			"SELECT count(*), count(s.amount) FROM date_dim d LEFT JOIN sales s ON d.date_id = s.date_id WHERE d.month BETWEEN 22 AND 26",
			[][]Value{{Int(outer.n), Int(outer.nAmount)}}, false, `OuterJoin`},
		{"right join read through count(col)",
			"SELECT count(*), count(s.amount) FROM sales s RIGHT JOIN date_dim d ON d.date_id = s.date_id WHERE d.month BETWEEN 22 AND 26",
			[][]Value{{Int(outer.n), Int(outer.nAmount)}}, false, `OuterJoin`},
		{"a join redistributed into a second join",
			"SELECT count(*), sum(s.amount), count(a.tag) FROM date_dim d, sales s, dim1 a WHERE d.date_id = s.date_id AND a.k = s.k1 AND d.month = 3",
			[][]Value{{Int(redistributed.n), redistributed.sumValue(), Int(redistributed.n)}}, false, `Redistribute Motion[^\n]*\n\s*-> HashJoin`},
		{"projection of one build column",
			"SELECT d.moy FROM date_dim d, sales s WHERE d.date_id = s.date_id AND d.month BETWEEN 3 AND 4",
			projected, false, `Project \(moy\)`},
	}
	render := func(rows [][]Value, ordered bool) []string {
		r := renderTyped(&Rows{Data: rows})
		if ordered {
			r = make([]string, len(rows))
			for i, row := range rows {
				r[i] = strings.Join(renderTyped(&Rows{Data: [][]Value{row}}), "")
			}
		}
		return r
	}
	for _, tc := range cases {
		if len(tc.want) == 0 {
			t.Fatalf("%s: empty ground truth", tc.name)
		}
		eng.SetOptimizer(Orca)
		plan, err := eng.Explain(tc.q)
		if err != nil {
			t.Fatalf("%s: explain: %v", tc.name, err)
		}
		if !regexp.MustCompile(tc.shape).MatchString(plan) {
			t.Fatalf("%s: plan lost the shape %q:\n%s", tc.name, tc.shape, plan)
		}
		want := render(tc.want, tc.ordered)
		for _, opt := range []OptimizerKind{Orca, LegacyPlanner} {
			eng.SetOptimizer(opt)
			for _, bs := range []int{1, 7, exec.DefaultBatchSize} {
				prev := exec.SetBatchSize(bs)
				rows, err := eng.Query(tc.q)
				exec.SetBatchSize(prev)
				if err != nil {
					t.Fatalf("%s (%v, batch %d): %v", tc.name, opt, bs, err)
				}
				if got := render(rows.Data, tc.ordered); strings.Join(got, "|") != strings.Join(want, "|") {
					t.Errorf("%s (%v, batch %d): %s", tc.name, opt, bs, firstDiff(got, want))
				}
			}
		}
	}
	eng.SetOptimizer(Orca)
}

// firstDiff describes where two rendered results first differ.
func firstDiff(got, want []string) string {
	for i := range got {
		if i >= len(want) {
			return fmt.Sprintf("%d rows, want %d", len(got), len(want))
		}
		if got[i] != want[i] {
			return fmt.Sprintf("row %d is %q, want %q", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("%d rows, want %d", len(got), len(want))
}
