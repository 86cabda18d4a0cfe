package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"npdbench/internal/rdf"
	"npdbench/internal/sparql"
)

// An answer is compared as a multiset of canonical rows: each row is the
// tab-joined canonical form of its terms in projection order. Row order
// never matters; a changed, missing or duplicated row always does.

// floatDigits is the precision at which double, float and decimal values
// are compared: SUM and AVG over doubles depend on the order of summation,
// which differs between the engine's pushed-down aggregate and the store's
// in-memory one in the last bits.
const floatDigits = 12

var litEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\t", `\t`, "\n", `\n`)

// canonTerm renders one term in a form that the engine's rdf.Term and a
// SPARQL-JSON binding map to identically. Blank-node labels are local to
// one result and are not compared.
func canonTerm(kind rdf.TermKind, value, datatype, lang string) string {
	switch kind {
	case rdf.IRI:
		return "<" + value + ">"
	case rdf.Blank:
		return "_:"
	case rdf.Literal:
		switch datatype {
		case rdf.XSDDouble, rdf.XSDDecimal, rdf.XSDNS + "float":
			if v, err := strconv.ParseFloat(value, 64); err == nil {
				value = strconv.FormatFloat(v, 'g', floatDigits, 64)
			}
		}
		s := `"` + litEscaper.Replace(value) + `"`
		switch {
		case lang != "":
			return s + "@" + strings.ToLower(lang)
		case datatype != "" && datatype != rdf.XSDString:
			return s + "^^<" + datatype + ">"
		}
		return s
	}
	return "" // unbound
}

// canonRows returns the canonical rows of an engine result set.
func canonRows(rs *sparql.ResultSet) []string {
	out := make([]string, len(rs.Rows))
	parts := make([]string, len(rs.Vars))
	for i, row := range rs.Rows {
		for j, t := range row {
			if t.IsZero() {
				parts[j] = ""
				continue
			}
			parts[j] = canonTerm(t.Kind, t.Value, t.Datatype, t.Lang)
		}
		out[i] = strings.Join(parts, "\t")
	}
	return out
}

// sparqlJSON is the SPARQL 1.1 Query Results JSON document.
type sparqlJSON struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Results struct {
		Bindings []map[string]struct {
			Type     string `json:"type"`
			Value    string `json:"value"`
			Datatype string `json:"datatype"`
			Lang     string `json:"xml:lang"`
		} `json:"bindings"`
	} `json:"results"`
}

// canonJSONRows decodes a SPARQL-JSON response body into canonical rows.
func canonJSONRows(body []byte) (vars, rows []string, err error) {
	var doc sparqlJSON
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, nil, fmt.Errorf("decoding SPARQL JSON results: %w", err)
	}
	parts := make([]string, len(doc.Head.Vars))
	for _, b := range doc.Results.Bindings {
		for j, v := range doc.Head.Vars {
			t, ok := b[v]
			if !ok {
				parts[j] = ""
				continue
			}
			var kind rdf.TermKind
			switch t.Type {
			case "uri":
				kind = rdf.IRI
			case "bnode":
				kind = rdf.Blank
			case "literal", "typed-literal":
				kind = rdf.Literal
			default:
				return nil, nil, fmt.Errorf("binding of ?%s has unknown type %q", v, t.Type)
			}
			parts[j] = canonTerm(kind, t.Value, t.Datatype, t.Lang)
		}
		rows = append(rows, strings.Join(parts, "\t"))
	}
	return doc.Head.Vars, rows, nil
}

// rowDiff compares two multisets of rows. It returns "" when they are
// equal, otherwise a short description naming a few differing rows.
func rowDiff(want, got []string) string {
	count := make(map[string]int, len(want))
	for _, r := range want {
		count[r]++
	}
	for _, r := range got {
		count[r]--
	}
	var missing, extra []string
	for r, c := range count {
		for ; c > 0; c-- {
			missing = append(missing, r)
		}
		for ; c < 0; c++ {
			extra = append(extra, r)
		}
	}
	if len(missing) == 0 && len(extra) == 0 {
		return ""
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return fmt.Sprintf("%d rows expected, %d returned; %d missing %s, %d unexpected %s",
		len(want), len(got), len(missing), sample(missing), len(extra), sample(extra))
}

func sample(rows []string) string {
	const show = 2
	if len(rows) > show {
		return fmt.Sprintf("%q...", rows[:show])
	}
	return fmt.Sprintf("%q", rows)
}

// refAnswer is the reference answer to one query.
type refAnswer struct {
	Query string `json:"query"`
	// Source names where the answer came from; Independent is false when
	// it was computed by this engine rather than by the triple store.
	Source      string   `json:"source"`
	Independent bool     `json:"independent"`
	Vars        []string `json:"vars"`
	Rows        []string `json:"rows"`
}

// reference holds the reference answers of one workload instance.
type reference struct {
	Instance string      `json:"instance"`
	Answers  []refAnswer `json:"answers"`
}

func (r *reference) answer(id string) *refAnswer {
	for i := range r.Answers {
		if r.Answers[i].Query == id {
			return &r.Answers[i]
		}
	}
	return nil
}

// check compares the canonical rows an execution returned against the
// reference answer of query id.
func (r *reference) check(id string, vars, rows []string) error {
	ref := r.answer(id)
	if ref == nil {
		return fmt.Errorf("%s: no reference answer", id)
	}
	if strings.Join(vars, ",") != strings.Join(ref.Vars, ",") {
		return fmt.Errorf("%s: projection %v, reference %v", id, vars, ref.Vars)
	}
	if d := rowDiff(ref.Rows, rows); d != "" {
		return fmt.Errorf("%s: answer differs from the %s reference: %s", id, ref.Source, d)
	}
	return nil
}

func readReference(path string) (*reference, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r reference
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("decoding reference %s: %w", path, err)
	}
	return &r, nil
}

// writeJSON writes v to path through a temporary file, so that a reader
// never sees a partial file.
func writeJSON(path string, v any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
