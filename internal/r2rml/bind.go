package r2rml

import (
	"strings"

	"npdbench/internal/sqldb"
)

// Typed returns a copy of the mapping whose template term maps carry the
// value kinds of their source columns, resolved against db's catalog (see
// Template.Typed). The receiver and its triples maps are never modified:
// triples maps with no typed template are shared, the others are copied.
// Equal typed templates are interned to one pointer, so DisjointWith's
// per-pair memo is shared across assertions.
//
// Column kinds are resolved only where the catalog proves them (see
// sourceKinds); every other placeholder stays untyped, which keeps every
// proof built on the kinds conservative.
func (mp *Mapping) Typed(db *sqldb.Database) *Mapping {
	out := &Mapping{Prefixes: mp.Prefixes, Maps: make([]*TriplesMap, 0, len(mp.Maps))}
	interned := make(map[string]*Template)
	bySource := make(map[string]map[string]sqldb.Kind) // many maps share a table
	for _, m := range mp.Maps {
		src := m.SourceDescription()
		kinds, ok := bySource[src]
		if !ok {
			kinds = sourceKinds(m, db)
			bySource[src] = kinds
		}
		if len(kinds) == 0 {
			out.Maps = append(out.Maps, m)
			continue
		}
		bind := func(tm TermMap) TermMap {
			if tm.Template == nil {
				return tm
			}
			t := tm.Template.Typed(func(col string) sqldb.Kind { return kinds[strings.ToLower(col)] })
			key := t.typeKey()
			if prev, ok := interned[key]; ok {
				t = prev
			} else {
				interned[key] = t
			}
			tm.Template = t
			return tm
		}
		n := &TriplesMap{Name: m.Name, Table: m.Table, SQL: m.SQL,
			Subject: bind(m.Subject), Classes: m.Classes}
		n.POs = make([]PredicateObject, len(m.POs))
		for i, po := range m.POs {
			n.POs[i] = PredicateObject{Predicate: po.Predicate, Object: bind(po.Object)}
		}
		// The copy shares the original's parsed source.
		n.parseOnce.Do(func() { n.parsedSQL, n.parseErr = m.LogicalSQL() })
		out.Maps = append(out.Maps, n)
	}
	return out
}

// sourceKinds resolves the value kinds of a triples map's source columns
// (lower-cased names) from db's catalog; an unresolved column is absent. A base-table source yields every
// column's declared kind. A SQL view yields kinds for the output columns
// that project a plain (optionally aliased or qualified) column reference
// of a base table in its FROM clause, including joined ones; SELECT *
// expands likewise. Expressions, columns of derived tables, ambiguous
// unqualified names, output names two columns of different kinds share,
// and UNION views stay unresolved.
func sourceKinds(m *TriplesMap, db *sqldb.Database) map[string]sqldb.Kind {
	if db == nil {
		return nil
	}
	if m.SQL == "" {
		t := db.Table(m.Table)
		if t == nil {
			return nil
		}
		return defKinds(t.Def, map[string]sqldb.Kind{})
	}
	stmt, err := m.LogicalSQL()
	if err != nil || stmt.Union != nil {
		return nil
	}
	scope := map[string]*sqldb.TableDef{}
	var order []string // aliases in FROM order, for SELECT *
	var addRef func(tr sqldb.TableRef) bool
	addRef = func(tr sqldb.TableRef) bool {
		switch r := tr.(type) {
		case *sqldb.BaseTable:
			t := db.Table(r.Name)
			if t == nil {
				return false
			}
			alias := strings.ToLower(r.Alias)
			if alias == "" {
				alias = strings.ToLower(r.Name)
			}
			scope[alias] = t.Def
			order = append(order, alias)
			return true
		case *sqldb.JoinRef:
			return addRef(r.L) && addRef(r.R)
		}
		return false
	}
	for _, tr := range stmt.From {
		if !addRef(tr) {
			return nil
		}
	}
	// lookup resolves a (possibly unqualified) column reference.
	lookup := func(table, col string) (sqldb.Kind, bool) {
		if table != "" {
			d := scope[strings.ToLower(table)]
			if d == nil {
				return sqldb.KindNull, false
			}
			i := d.ColIndex(col)
			if i < 0 {
				return sqldb.KindNull, false
			}
			return d.Columns[i].Type.Kind(), true
		}
		found := false
		var k sqldb.Kind
		for _, alias := range order {
			d := scope[alias]
			if i := d.ColIndex(col); i >= 0 {
				if found {
					return sqldb.KindNull, false // ambiguous
				}
				found, k = true, d.Columns[i].Type.Kind()
			}
		}
		return k, found
	}
	out := map[string]sqldb.Kind{}
	for _, it := range stmt.Items {
		if it.Star {
			for _, alias := range order {
				if it.Table == "" || strings.EqualFold(it.Table, alias) {
					defKinds(scope[alias], out)
				}
			}
			continue
		}
		c, ok := it.Expr.(*sqldb.ColRef)
		if !ok {
			if it.Alias != "" {
				setKind(out, it.Alias, sqldb.KindNull) // computed: unknown
			}
			continue
		}
		name := it.Alias
		if name == "" {
			name = c.Name
		}
		if k, ok := lookup(c.Table, c.Name); ok {
			setKind(out, name, k)
		}
	}
	for name, k := range out {
		if k == sqldb.KindNull {
			delete(out, name) // computed or clashing: unresolved
		}
	}
	return out
}

// setKind records column name's kind in kinds. A name already present with
// another kind (two output columns of one name) resolves to KindNull.
func setKind(kinds map[string]sqldb.Kind, name string, k sqldb.Kind) {
	name = strings.ToLower(name)
	if prev, ok := kinds[name]; ok && prev != k {
		k = sqldb.KindNull
	}
	kinds[name] = k
}

// defKinds adds a table definition's column kinds to into.
func defKinds(d *sqldb.TableDef, into map[string]sqldb.Kind) map[string]sqldb.Kind {
	for _, c := range d.Columns {
		setKind(into, c.Name, c.Type.Kind())
	}
	return into
}
