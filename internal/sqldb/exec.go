package sqldb

import (
	"fmt"
	"sort"
)

// relation is a materialized intermediate result. Base-table scans share the
// table's row storage (rows are never mutated in place by the executor).
type relation struct {
	cols []colMeta
	// rows may alias a base table's storage (star fast path) or another
	// relation's backing array; the sharedmut lint pass enforces that it is
	// freshened with an owned copy before any in-place mutation.
	rows []Row //lint:shared may alias base-table storage
	// vec is the columnar backing when the batch executor produced (or
	// scanned) this relation; immutable and possibly shared, like rows.
	// Base-table scans carry both backings so falling back to a row
	// operator is free; matRows() materializes (once) otherwise.
	vec *vecData
	mat bool // rows were materialized from vec (avoid re-materializing)
}

// filterRelation keeps rows where pred evaluates to TRUE. Inputs past the
// parallel threshold are filtered morsel-wise: workers claim fixed-size
// row chunks, keep survivors in per-morsel buffers, and the buffers are
// concatenated in morsel order — bit-identical to the sequential scan.
func filterRelation(ctx *execCtx, r *relation, pred Expr) (*relation, error) {
	if ctx.batchOn() && r.vec != nil {
		return batchFilter(ctx, r, pred)
	}
	r.matRows()
	f, err := bindExpr(pred, r.cols)
	if err != nil {
		return nil, err
	}
	if ctx.parWorkers() > 1 && len(r.rows) >= minParallelRows {
		return filterMorsels(ctx, r, f)
	}
	out := &relation{cols: r.cols}
	poll := ctx.pollMask()
	for i, row := range r.rows {
		if i&poll == 0 {
			if err := ctx.cancelled(); err != nil {
				return nil, err
			}
		}
		v, err := f(row)
		if err != nil {
			return nil, err
		}
		if !v.IsNull() && v.Bool() {
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

// filterMorsels is the parallel arm of filterRelation. evalFns close only
// over immutable bind-time state, so one bound predicate serves all
// workers.
func filterMorsels(ctx *execCtx, r *relation, f evalFn) (*relation, error) {
	n := len(r.rows)
	m := (n + morselRows - 1) / morselRows
	kept := make([][]Row, m)
	workers, err := ctx.par.run(m, func(i int) error {
		lo := i * morselRows
		hi := lo + morselRows
		if hi > n {
			hi = n
		}
		var buf []Row
		for _, row := range r.rows[lo:hi] {
			v, err := f(row)
			if err != nil {
				return err
			}
			if !v.IsNull() && v.Bool() {
				buf = append(buf, row)
			}
		}
		kept[i] = buf
		return nil
	})
	if err != nil {
		return nil, err
	}
	ctx.par.stats.Morsels.Add(int64(m))
	total := 0
	for _, b := range kept {
		total += len(b)
	}
	out := &relation{cols: r.cols, rows: make([]Row, 0, total)}
	for _, b := range kept {
		out.rows = append(out.rows, b...)
	}
	ctx.setParNote(fmt.Sprintf(" [morsels=%d workers=%d]", m, workers))
	return out, nil
}

func concatRows(a, b Row) Row {
	out := make(Row, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

// equiKey describes one equality column pair between two relations.
type equiKey struct {
	lSlot, rSlot int
}

// extractEquiKeys splits conjuncts into equi-join keys between l and r and
// residual predicates. Conjuncts referring only to one side are also
// returned as residual (callers push those down before joining).
func extractEquiKeys(conjuncts []Expr, l, r *relation) (keys []equiKey, residual []Expr) {
	for _, c := range conjuncts {
		if b, ok := c.(*BinOp); ok && b.Op == OpEq {
			lc, lok := b.L.(*ColRef)
			rc, rok := b.R.(*ColRef)
			if lok && rok {
				ls := findCol(l.cols, lc.Table, lc.Name)
				rs := findCol(r.cols, rc.Table, rc.Name)
				if ls >= 0 && rs >= 0 && findCol(r.cols, lc.Table, lc.Name) < 0 && findCol(l.cols, rc.Table, rc.Name) < 0 {
					keys = append(keys, equiKey{ls, rs})
					continue
				}
				// try swapped orientation
				ls2 := findCol(l.cols, rc.Table, rc.Name)
				rs2 := findCol(r.cols, lc.Table, lc.Name)
				if ls2 >= 0 && rs2 >= 0 && findCol(r.cols, rc.Table, rc.Name) < 0 && findCol(l.cols, lc.Table, lc.Name) < 0 {
					keys = append(keys, equiKey{ls2, rs2})
					continue
				}
			}
		}
		residual = append(residual, c)
	}
	return keys, residual
}

// computedKeyName names the hidden key columns computedKeyJoin appends; no
// SQL identifier can reference it.
const computedKeyName = "\x00key"

// computedKeyJoin is the equi-join path for equalities between expressions
// rather than columns, e.g. the unfolder's
//
//	'…/licence/' || t1.id = '…/licence/' || t2.id || '/task/' || t2.name
//
// A conjunct expr(l) = expr(r) whose sides each bind to one input only is
// lifted into a computed key: each side's expression is evaluated once per
// row into a hidden key column appended to a copy of that input, and the
// inputs join on those columns through the ordinary hashJoin (mergeJoin
// under the sort-merge profile), so the pair costs a build and a probe
// instead of a nested loop over every row pair. Key equality is Value.Key
// equality, exactly as for column keys. The hidden columns are dropped
// from the output. It returns a nil relation, having evaluated nothing,
// when no conjunct qualifies; nkeys is the number of lifted keys.
func computedKeyJoin(ctx *execCtx, l, r *relation, conjuncts []Expr, profile Profile) (out *relation, nkeys int, err error) {
	var lx, rx, residual []Expr
	for _, c := range conjuncts {
		if b, isEq := c.(*BinOp); isEq && b.Op == OpEq {
			switch {
			case bindsOnly(b.L, l, r) && bindsOnly(b.R, r, l):
				lx, rx = append(lx, b.L), append(rx, b.R)
				continue
			case bindsOnly(b.R, l, r) && bindsOnly(b.L, r, l):
				lx, rx = append(lx, b.R), append(rx, b.L)
				continue
			}
		}
		residual = append(residual, c)
	}
	if len(lx) == 0 {
		return nil, 0, nil
	}
	cols := append(append([]colMeta{}, l.cols...), r.cols...)
	if l.numRows() == 0 || r.numRows() == 0 {
		return &relation{cols: cols}, len(lx), nil
	}
	lk, err := withKeyColumns(ctx, l, lx)
	if err != nil {
		return nil, 0, err
	}
	rk, err := withKeyColumns(ctx, r, rx)
	if err != nil {
		return nil, 0, err
	}
	keys := make([]equiKey, len(lx))
	for i := range keys {
		keys[i] = equiKey{len(l.cols) + i, len(r.cols) + i}
	}
	var joined *relation
	if profile == ProfileSortMerge {
		joined, err = mergeJoin(ctx, lk, rk, keys, andAll(residual))
	} else {
		joined, err = hashJoin(ctx, lk, rk, keys, andAll(residual))
	}
	if err != nil {
		return nil, 0, err
	}
	// Drop the hidden key columns: [l | lkeys | r | rkeys] -> [l | r].
	nl, nr, nk := len(l.cols), len(r.cols), len(lx)
	out = &relation{cols: cols, rows: make([]Row, len(joined.rows))}
	slab := make([]Value, len(joined.rows)*(nl+nr))
	for i, row := range joined.rows {
		o := slab[i*(nl+nr) : (i+1)*(nl+nr) : (i+1)*(nl+nr)]
		copy(o, row[:nl])
		copy(o[nl:], row[nl+nk:nl+nk+nr])
		out.rows[i] = o
	}
	return out, nk, nil
}

// equiJoinAlgo names the equi-join algorithm the profile plans.
func equiJoinAlgo(profile Profile) string {
	if profile == ProfileSortMerge {
		return "merge join"
	}
	return "hash join"
}

// bindsOnly reports whether e references columns of own and none of other.
func bindsOnly(e Expr, own, other *relation) bool {
	return bindable(e, own.cols) && !bindable(e, other.cols)
}

// withKeyColumns returns a row-backed copy of r with one column appended
// per expression, holding its value for the row.
func withKeyColumns(ctx *execCtx, r *relation, exprs []Expr) (*relation, error) {
	fns := make([]evalFn, len(exprs))
	out := &relation{cols: append([]colMeta{}, r.cols...)}
	for i, e := range exprs {
		f, err := bindExpr(e, r.cols)
		if err != nil {
			return nil, err
		}
		fns[i] = f
		out.cols = append(out.cols, colMeta{name: computedKeyName})
	}
	rows := r.matRows()
	w := len(out.cols)
	out.rows = make([]Row, len(rows))
	slab := make([]Value, len(rows)*w)
	poll := ctx.pollMask()
	for i, row := range rows {
		if i&poll == 0 {
			if err := ctx.cancelled(); err != nil {
				return nil, err
			}
		}
		o := slab[i*w : (i+1)*w : (i+1)*w]
		copy(o, row)
		for j, f := range fns {
			v, err := f(row)
			if err != nil {
				return nil, err
			}
			o[len(row)+j] = v
		}
		out.rows[i] = o
	}
	return out, nil
}

// splitConjuncts flattens nested ANDs.
func splitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinOp); ok && b.Op == OpAnd {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// andAll rebuilds a conjunction (nil for empty input).
func andAll(conjuncts []Expr) Expr {
	var out Expr
	for _, c := range conjuncts {
		if out == nil {
			out = c
		} else {
			out = &BinOp{Op: OpAnd, L: out, R: c}
		}
	}
	return out
}

// hashJoin performs an inner equi-join; residual conjuncts are checked on
// each candidate pair. Joins past the parallel threshold run partitioned:
// the build side is hashed into P disjoint partition tables by parallel
// workers and the probe side is probed morsel-wise, each morsel writing
// its own output buffer; build order within a key and probe order across
// morsels are preserved, so output order is bit-identical to sequential.
func hashJoin(ctx *execCtx, l, r *relation, keys []equiKey, residual Expr) (*relation, error) {
	if ctx.batchOn() && l.vec != nil && r.vec != nil && len(keys) > 0 {
		return batchHashJoin(ctx, l, r, keys, residual)
	}
	l.matRows()
	r.matRows()
	out := &relation{cols: append(append([]colMeta{}, l.cols...), r.cols...)}
	var resFn evalFn
	if residual != nil {
		var err error
		resFn, err = bindExpr(residual, out.cols)
		if err != nil {
			return nil, err
		}
	}
	// Build on the smaller side.
	build, probe := r, l
	buildRight := true
	if len(l.rows) < len(r.rows) {
		build, probe = l, r
		buildRight = false
	}
	buildCols := make([]int, len(keys))
	probeCols := make([]int, len(keys))
	for i, k := range keys {
		if buildRight {
			buildCols[i], probeCols[i] = k.rSlot, k.lSlot
		} else {
			buildCols[i], probeCols[i] = k.lSlot, k.rSlot
		}
	}
	if ctx.parWorkers() > 1 && len(build.rows)+len(probe.rows) >= minParallelRows {
		rows, err := partitionedHashJoin(ctx, build, probe, buildCols, probeCols, buildRight, resFn)
		if err != nil {
			return nil, err
		}
		out.rows = rows
		return out, nil
	}
	poll := ctx.pollMask()
	ht := make(map[string][]Row, len(build.rows))
	for i, row := range build.rows {
		if i&poll == 0 {
			if err := ctx.cancelled(); err != nil {
				return nil, err
			}
		}
		if hasNullAt(row, buildCols) {
			continue
		}
		k := RowKey(row, buildCols)
		ht[k] = append(ht[k], row)
	}
	for i, prow := range probe.rows {
		if i&poll == 0 {
			if err := ctx.cancelled(); err != nil {
				return nil, err
			}
		}
		if hasNullAt(prow, probeCols) {
			continue
		}
		for _, brow := range ht[RowKey(prow, probeCols)] {
			var joined Row
			if buildRight {
				joined = concatRows(prow, brow)
			} else {
				joined = concatRows(brow, prow)
			}
			if resFn != nil {
				v, err := resFn(joined)
				if err != nil {
					return nil, err
				}
				if v.IsNull() || !v.Bool() {
					continue
				}
			}
			out.rows = append(out.rows, joined)
		}
	}
	return out, nil
}

// partitionedHashJoin is the parallel arm of hashJoin. Three phases, each
// a parallel fan-out over the statement's worker budget:
//
//  1. key extraction — build-side join keys and their hashes, morsel-wise
//     ("" marks a NULL key, which can never join);
//  2. partitioned build — P workers each own partition p and insert every
//     build row with hash%P == p, scanning the build side in row order so
//     per-key row lists keep build order without any locking;
//  3. morsel probe — probe rows are hashed to their partition and probed
//     against it, each morsel appending matches to its own buffer.
//
// The buffers concatenate in morsel order, reproducing the sequential
// probe-order output exactly. A residual error surfaces from the morsel
// holding the earliest failing probe row — the same error sequential
// execution reports.
func partitionedHashJoin(ctx *execCtx, build, probe *relation, buildCols, probeCols []int, buildRight bool, resFn evalFn) ([]Row, error) {
	parts := ctx.parWorkers()
	if parts > maxJoinPartitions {
		parts = maxJoinPartitions
	}
	if parts < 2 {
		parts = 2
	}
	nb := len(build.rows)
	buildKeys := make([]string, nb)
	buildHash := make([]uint64, nb)
	mb := (nb + morselRows - 1) / morselRows
	if _, err := ctx.par.run(mb, func(i int) error {
		lo := i * morselRows
		hi := lo + morselRows
		if hi > nb {
			hi = nb
		}
		for j := lo; j < hi; j++ {
			if hasNullAt(build.rows[j], buildCols) {
				continue // buildKeys[j] stays "", the NULL marker
			}
			buildKeys[j] = RowKey(build.rows[j], buildCols)
			buildHash[j] = hashString(buildKeys[j])
		}
		return nil
	}); err != nil {
		return nil, err
	}
	tables := make([]map[string][]Row, parts)
	if _, err := ctx.par.run(parts, func(p int) error {
		ht := make(map[string][]Row, nb/parts+1)
		for j := 0; j < nb; j++ {
			if buildKeys[j] == "" || int(buildHash[j]%uint64(parts)) != p {
				continue
			}
			ht[buildKeys[j]] = append(ht[buildKeys[j]], build.rows[j])
		}
		tables[p] = ht
		return nil
	}); err != nil {
		return nil, err
	}
	np := len(probe.rows)
	mp := (np + morselRows - 1) / morselRows
	outs := make([][]Row, mp)
	workers, err := ctx.par.run(mp, func(i int) error {
		lo := i * morselRows
		hi := lo + morselRows
		if hi > np {
			hi = np
		}
		var buf []Row
		for _, prow := range probe.rows[lo:hi] {
			if hasNullAt(prow, probeCols) {
				continue
			}
			k := RowKey(prow, probeCols)
			for _, brow := range tables[hashString(k)%uint64(parts)][k] {
				var joined Row
				if buildRight {
					joined = concatRows(prow, brow)
				} else {
					joined = concatRows(brow, prow)
				}
				if resFn != nil {
					v, err := resFn(joined)
					if err != nil {
						return err
					}
					if v.IsNull() || !v.Bool() {
						continue
					}
				}
				buf = append(buf, joined)
			}
		}
		outs[i] = buf
		return nil
	})
	if err != nil {
		return nil, err
	}
	ctx.par.stats.JoinPartitions.Add(int64(parts))
	ctx.par.stats.Morsels.Add(int64(mb + mp))
	total := 0
	for _, b := range outs {
		total += len(b)
	}
	rows := make([]Row, 0, total)
	for _, b := range outs {
		rows = append(rows, b...)
	}
	ctx.setParNote(fmt.Sprintf(" [partitions=%d workers=%d]", parts, workers))
	return rows, nil
}

// mergeJoin sorts both sides on the first key column and merges; remaining
// keys and residual conjuncts are verified per pair. It reproduces the
// "PostgreSQL-like" profile behaviour (sort-merge machinery). ctx may be
// nil (standalone join without a statement's sort-order cache).
func mergeJoin(ctx *execCtx, l, r *relation, keys []equiKey, residual Expr) (*relation, error) {
	if len(keys) == 0 {
		return nestedLoopJoin(ctx, l, r, residual)
	}
	l.matRows()
	r.matRows()
	out := &relation{cols: append(append([]colMeta{}, l.cols...), r.cols...)}
	var resFn evalFn
	rest := keys[1:]
	checks := residual
	if residual != nil || len(rest) > 0 {
		var conj []Expr
		if residual != nil {
			conj = append(conj, residual)
		}
		_ = checks
		var err error
		if len(conj) > 0 {
			resFn, err = bindExpr(andAll(conj), out.cols)
			if err != nil {
				return nil, err
			}
		}
	}
	k0 := keys[0]
	li := ctx.sortedOrder(l, k0.lSlot)
	ri := ctx.sortedOrder(r, k0.rSlot)
	i, j := 0, 0
	steps := 0
	for i < len(li) && j < len(ri) {
		if steps&(morselRows-1) == 0 {
			if err := ctx.cancelled(); err != nil {
				return nil, err
			}
		}
		steps++
		lv := l.rows[li[i]][k0.lSlot]
		rv := r.rows[ri[j]][k0.rSlot]
		if lv.IsNull() {
			i++
			continue
		}
		if rv.IsNull() {
			j++
			continue
		}
		c, err := Compare(lv, rv)
		if err != nil {
			return nil, err
		}
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			// find the equal runs
			i2 := i
			for i2 < len(li) {
				v := l.rows[li[i2]][k0.lSlot]
				if v.IsNull() || !Equal(v, lv) {
					break
				}
				i2++
			}
			j2 := j
			for j2 < len(ri) {
				v := r.rows[ri[j2]][k0.rSlot]
				if v.IsNull() || !Equal(v, rv) {
					break
				}
				j2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					lrow, rrow := l.rows[li[a]], r.rows[ri[b]]
					ok := true
					for _, k := range rest {
						if !Equal(lrow[k.lSlot], rrow[k.rSlot]) {
							ok = false
							break
						}
					}
					if !ok {
						continue
					}
					joined := concatRows(lrow, rrow)
					if resFn != nil {
						v, err := resFn(joined)
						if err != nil {
							return nil, err
						}
						if v.IsNull() || !v.Bool() {
							continue
						}
					}
					out.rows = append(out.rows, joined)
				}
			}
			i, j = i2, j2
		}
	}
	return out, nil
}

// computeSortedOrder materializes the row order of r sorted by column
// slot. Callers go through execCtx.sortedOrder, the context-aware wrapper
// that caches per statement; this is the single underlying implementation.
func computeSortedOrder(r *relation, slot int) []int {
	idx := make([]int, len(r.rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		c, err := Compare(r.rows[idx[a]][slot], r.rows[idx[b]][slot])
		return err == nil && c < 0
	})
	return idx
}

// nestedLoopJoin joins with an arbitrary predicate (nil = cross join).
// ctx may be nil (standalone join without cancellation).
func nestedLoopJoin(ctx *execCtx, l, r *relation, pred Expr) (*relation, error) {
	l.matRows()
	r.matRows()
	if ctx != nil && ctx.stats != nil {
		ctx.stats.NestedLoopPairs.Add(int64(len(l.rows)) * int64(len(r.rows)))
	}
	out := &relation{cols: append(append([]colMeta{}, l.cols...), r.cols...)}
	var f evalFn
	if pred != nil {
		var err error
		f, err = bindExpr(pred, out.cols)
		if err != nil {
			return nil, err
		}
	}
	for _, lrow := range l.rows {
		if err := ctx.cancelled(); err != nil {
			return nil, err
		}
		for _, rrow := range r.rows {
			joined := concatRows(lrow, rrow)
			if f != nil {
				v, err := f(joined)
				if err != nil {
					return nil, err
				}
				if v.IsNull() || !v.Bool() {
					continue
				}
			}
			out.rows = append(out.rows, joined)
		}
	}
	return out, nil
}

// leftJoin performs a left outer join with predicate on. Equi components of
// the predicate are used for hashing; the full predicate decides matching.
// ctx may be nil (standalone join without cancellation).
func leftJoin(ctx *execCtx, l, r *relation, on Expr) (*relation, error) {
	l.matRows()
	r.matRows()
	out := &relation{cols: append(append([]colMeta{}, l.cols...), r.cols...)}
	conjuncts := splitConjuncts(on)
	keys, residual := extractEquiKeys(conjuncts, l, r)
	var resFn evalFn
	if res := andAll(residual); res != nil {
		var err error
		resFn, err = bindExpr(res, out.cols)
		if err != nil {
			return nil, err
		}
	}
	nullPad := make(Row, len(r.cols))
	if len(keys) > 0 {
		rCols := make([]int, len(keys))
		lCols := make([]int, len(keys))
		for i, k := range keys {
			rCols[i], lCols[i] = k.rSlot, k.lSlot
		}
		ht := make(map[string][]Row, len(r.rows))
		for _, row := range r.rows {
			if hasNullAt(row, rCols) {
				continue
			}
			k := RowKey(row, rCols)
			ht[k] = append(ht[k], row)
		}
		poll := ctx.pollMask()
		for i, lrow := range l.rows {
			if i&poll == 0 {
				if err := ctx.cancelled(); err != nil {
					return nil, err
				}
			}
			matched := false
			if !hasNullAt(lrow, lCols) {
				for _, rrow := range ht[RowKey(lrow, lCols)] {
					joined := concatRows(lrow, rrow)
					if resFn != nil {
						v, err := resFn(joined)
						if err != nil {
							return nil, err
						}
						if v.IsNull() || !v.Bool() {
							continue
						}
					}
					out.rows = append(out.rows, joined)
					matched = true
				}
			}
			if !matched {
				out.rows = append(out.rows, concatRows(lrow, nullPad))
			}
		}
		return out, nil
	}
	// no equi keys: nested loop
	var onFn evalFn
	if on != nil {
		var err error
		onFn, err = bindExpr(on, out.cols)
		if err != nil {
			return nil, err
		}
	}
	for _, lrow := range l.rows {
		if err := ctx.cancelled(); err != nil {
			return nil, err
		}
		matched := false
		for _, rrow := range r.rows {
			joined := concatRows(lrow, rrow)
			if onFn != nil {
				v, err := onFn(joined)
				if err != nil {
					return nil, err
				}
				if v.IsNull() || !v.Bool() {
					continue
				}
			}
			out.rows = append(out.rows, joined)
			matched = true
		}
		if !matched {
			out.rows = append(out.rows, concatRows(lrow, nullPad))
		}
	}
	return out, nil
}

// naturalJoin joins on all same-named columns and keeps the shared columns
// once (from the left side), per SQL NATURAL JOIN semantics.
func naturalJoin(ctx *execCtx, l, r *relation, profile Profile) (*relation, error) {
	type shared struct{ lSlot, rSlot int }
	var commons []shared
	rUsed := make(map[int]bool)
	for ls, lc := range l.cols {
		for rs, rc := range r.cols {
			if rUsed[rs] {
				continue
			}
			if lc.name == rc.name {
				commons = append(commons, shared{ls, rs})
				rUsed[rs] = true
				break
			}
		}
	}
	var keys []equiKey
	for _, c := range commons {
		keys = append(keys, equiKey{c.lSlot, c.rSlot})
	}
	var joined *relation
	var err error
	if len(keys) == 0 {
		joined, err = nestedLoopJoin(ctx, l, r, nil)
	} else if profile == ProfileSortMerge {
		joined, err = mergeJoin(ctx, l, r, keys, nil)
	} else {
		joined, err = hashJoin(ctx, l, r, keys, nil)
	}
	if err != nil {
		return nil, err
	}
	// Project away the right-side copies of shared columns.
	keep := make([]int, 0, len(joined.cols)-len(commons))
	for i := range l.cols {
		keep = append(keep, i)
	}
	for i := range r.cols {
		if !rUsed[i] {
			keep = append(keep, len(l.cols)+i)
		}
	}
	out := &relation{cols: make([]colMeta, len(keep))}
	for i, s := range keep {
		out.cols[i] = joined.cols[s]
	}
	joined.matRows()
	out.rows = make([]Row, len(joined.rows))
	for ri, row := range joined.rows {
		nr := make(Row, len(keep))
		for i, s := range keep {
			nr[i] = row[s]
		}
		out.rows[ri] = nr
	}
	return out, nil
}

// distinctRows removes duplicate rows, preserving first occurrence order.
// Rows are keyed by a hash computed into one reusable buffer — no per-row
// key string — with hash collisions resolved by semantic key comparison,
// so the dedup path allocates only the surviving-row slice and the bucket
// map (see BenchmarkDistinct for the before/after).
func distinctRows(r *relation) *relation {
	out := &relation{cols: r.cols, rows: make([]Row, 0, len(r.rows))}
	buckets := make(map[uint64][]int, len(r.rows))
	var buf []byte
	for _, row := range r.rows {
		buf = appendRowKey(buf[:0], row, nil)
		h := hashBytes(buf)
		dup := false
		for _, i := range buckets[h] {
			if rowKeyEq(out.rows[i], row) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		buckets[h] = append(buckets[h], len(out.rows))
		out.rows = append(out.rows, row)
	}
	return out
}

// sortRelation sorts rows by the given key functions, writing the new
// order into r's row slice in place: callers own r's backing array
// (orderRelation freshens it first, exactly because the slice can alias a
// base table via the star fast path).
//
//lint:mutates r
func sortRelation(r *relation, keys []evalFn, desc []bool) error {
	type keyed struct {
		row  Row
		keys []Value
	}
	ks := make([]keyed, len(r.rows))
	for i, row := range r.rows {
		kv := make([]Value, len(keys))
		for j, f := range keys {
			v, err := f(row)
			if err != nil {
				return err
			}
			kv[j] = v
		}
		ks[i] = keyed{row, kv}
	}
	sort.SliceStable(ks, func(a, b int) bool {
		for j := range keys {
			c, err := Compare(ks[a].keys[j], ks[b].keys[j])
			if err != nil {
				continue
			}
			if c == 0 {
				continue
			}
			if desc[j] {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	for i := range ks {
		r.rows[i] = ks[i].row
	}
	return nil
}

// relationFingerprint digests a relation order-insensitively (tests use it
// for multiset equality between profiles): per-row key hashes encoded into
// one reusable buffer are combined commutatively, so no per-row strings
// and no sort are needed.
func relationFingerprint(r *relation) string {
	var buf []byte
	var sum, xor uint64
	for _, row := range r.rows {
		buf = appendRowKey(buf[:0], row, nil)
		h := hashBytes(buf)
		sum += h
		xor ^= h
	}
	return fmt.Sprintf("%d:%016x:%016x", len(r.rows), sum, xor)
}
