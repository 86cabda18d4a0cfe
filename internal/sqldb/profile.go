package sqldb

// Profile selects the planner/executor behaviour of a Database. The NPD
// benchmark paper evaluates the same OBDA frontend over MySQL and
// PostgreSQL; this engine reproduces that comparison with two profiles of
// one code base.
type Profile uint8

const (
	// ProfileHashJoin is the "MySQL-like" profile: joins are executed in
	// the order they are written (left-deep) using hash joins on the
	// available equality predicates (column pairs, or expressions over one
	// side each as computed keys), nested loops otherwise.
	ProfileHashJoin Profile = iota
	// ProfileSortMerge is the "PostgreSQL-like" profile: the planner
	// greedily reorders joins by estimated input cardinality and executes
	// them as sort-merge joins.
	ProfileSortMerge
)

func (p Profile) String() string {
	switch p {
	case ProfileHashJoin:
		return "hashjoin"
	case ProfileSortMerge:
		return "sortmerge"
	}
	return "unknown"
}
