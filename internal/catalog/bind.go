package catalog

// bind.go decides, once per statement, which dataset every name means and
// who must hold a grant on it. It is the only non-test file in the package
// that calls sqlparser.ReferencedTables, looks up a name that came out of
// SQL, or calls engine.Compile (make lint-bind): every statement path runs
// bind → authorize → compile, and the cache key's version vector, the
// preview memo's stamp, ReferencedDatasets and ViewDepth read the same graph.
//
//	R1  A name written in the statement binds in the actor's namespace:
//	    "owner.name" exact, else the actor's own dataset, else a unique
//	    short name across the catalog (state.lookup).
//	R2  A name written in a dataset's body binds in that dataset's owner's
//	    namespace, at every depth, for every consumer: a shared view means
//	    one thing whoever reads it.
//	R3  A "~base:" name binds only from the body of a dataset with the same
//	    owner (an upload's wrapper, its UNION-append rewrite, its #mat swap);
//	    anywhere else it is AccessError "base tables are internal".
//	R4  Whoever a statement reads data for is authorized — the reader, the
//	    saver of a view, the materializer, the owner appending or having a
//	    preview rendered: a direct grant on each dataset the statement names
//	    and, below it, the §3.2 ownership-chain rule on every edge.
//
// A name that does not bind becomes a ref carrying its error: authorize and
// compile fail on it, ReferencedDatasets and ViewDepth skip it, a preview
// over it is empty.

import (
	"errors"
	"fmt"
	"strings"

	"sqlshare/internal/engine"
	"sqlshare/internal/qcache"
	"sqlshare/internal/sqlparser"
	"sqlshare/internal/storage"
)

// binding is one statement's resolved dataset graph over one published
// state, which never changes: it stays valid for as long as it is held.
type binding struct {
	s      *state
	actor  string
	root   *scope              // the names the actor wrote
	nodes  []*scope            // the datasets reached, each once, in first-visit order
	q      sqlparser.QueryExpr // what compile compiles…
	in     *scope              // …against the names bound here
	broken bool                // some name, at some depth, did not bind
}

// scope is the bound names of one body of SQL — the statement's (ds == nil)
// or a dataset's — and the engine.Resolver that body compiles against.
type scope struct {
	owner   string // whose namespace the names bind in
	ds      *Dataset
	refs    []ref
	checked bool // authorize has walked these refs
}

// ref is one bound name: a dataset, a base table, or why it is neither.
type ref struct {
	name  string
	to    *scope
	table *storage.Table
	err   error
}

// bind binds the statement q for actor.
func (s *state) bind(actor string, q sqlparser.QueryExpr) *binding {
	b := &binding{s: s, actor: actor, root: &scope{owner: actor}, q: q}
	b.in = b.root
	b.bind(b.root, q)
	return b
}

// bindDataset binds the statement "actor reads ds" for a dataset the caller
// already holds; what compiles is ds's own definition.
func (s *state) bindDataset(actor string, ds *Dataset) *binding {
	b := &binding{s: s, actor: actor, root: &scope{owner: actor}, q: ds.Query}
	b.in = b.node(ds)
	b.root.refs = []ref{{name: ds.FullName(), to: b.in}}
	return b
}

// bind binds the names q writes into s (R1–R3).
func (b *binding) bind(s *scope, q sqlparser.QueryExpr) {
	for _, name := range sqlparser.ReferencedTables(q) {
		r := ref{name: name}
		if !strings.HasPrefix(name, basePrefix) {
			var ds *Dataset
			if ds, r.err = b.s.lookup(s.owner, name); r.err == nil {
				r.to = b.node(ds)
			}
		} else if s.ds == nil || !strings.HasPrefix(name, basePrefix+s.owner+".") {
			r.err = &AccessError{User: b.actor, Dataset: name, Reason: "base tables are internal"}
		} else if r.table = b.s.baseTables[name]; r.table == nil {
			r.err = fmt.Errorf("catalog: missing base table %q", name)
		}
		b.broken = b.broken || r.err != nil
		s.refs = append(s.refs, r)
	}
}

// node returns ds's scope, binding its body on the first visit; it is
// registered before the body is walked, so a definition cycle closes on it.
// A dataset is its name: a caller's copy and the catalog's record are one
// node.
func (b *binding) node(ds *Dataset) *scope {
	for _, n := range b.nodes {
		if n.ds.Owner == ds.Owner && n.ds.Name == ds.Name {
			return n
		}
	}
	n := &scope{owner: ds.Owner, ds: ds}
	b.nodes = append(b.nodes, n)
	b.bind(n, ds.Query)
	return n
}

// ResolveDataset implements engine.Resolver over the bound names.
func (s *scope) ResolveDataset(name string) (engine.Resolution, error) {
	for _, r := range s.refs {
		switch {
		case r.name != name:
		case r.err != nil:
			return engine.Resolution{}, r.err
		case r.table != nil:
			return engine.Resolution{Table: r.table}, nil
		default:
			return engine.Resolution{View: r.to.ds.Query, Scope: r.to}, nil
		}
	}
	return engine.Resolution{}, fmt.Errorf("catalog: dataset %q not found", name)
}

// authorize applies R4 for the actor.
func (b *binding) authorize() error { return b.check(b.root) }

// check walks the refs of s and everything below, each scope once. A
// reference is exempt from re-checking only while the owner is unchanged
// along the chain; where it changes — the actor's statement being the first
// link — the referenced dataset must itself grant the actor (§3.2's A→B→C).
func (b *binding) check(s *scope) error {
	if s.checked {
		return nil
	}
	s.checked = true
	for _, r := range s.refs {
		switch {
		case r.table != nil:
			continue // base tables share their wrapper's owner
		case r.err != nil && (s.ds == nil || IsAccessError(r.err)):
			return r.err
		case r.err != nil:
			return fmt.Errorf("catalog: %s references missing dataset %q", s.ds.FullName(), r.name)
		}
		if ds := r.to.ds; ds.Owner != s.owner && !grants(b.actor, ds) {
			reason := "no permission"
			if s.ds != nil {
				reason = fmt.Sprintf("ownership chain broken at %s (owner %s ≠ %s)", s.ds.FullName(), s.owner, ds.Owner)
			}
			return &AccessError{User: b.actor, Dataset: ds.FullName(), Reason: reason}
		}
		if err := b.check(r.to); err != nil {
			return err
		}
	}
	return nil
}

// compile compiles the statement against the bound names.
func (b *binding) compile() (*engine.Plan, error) { return engine.Compile(b.q, b.in) }

// plan is authorize → compile.
func (b *binding) plan() (*engine.Plan, error) {
	if err := b.authorize(); err != nil {
		return nil, err
	}
	return b.compile()
}

// versions fences a cached result and a memoized preview: the content
// version of every dataset the statement reads.
func (b *binding) versions() qcache.VersionVector {
	vv := make(qcache.VersionVector, len(b.nodes))
	for i, n := range b.nodes {
		full := n.ds.FullName()
		vv[i] = qcache.DatasetVersion{Name: full, Version: b.s.versions[full]}
	}
	return vv
}

// datasets lists what s's body names directly: no base tables, no errors.
func (s *scope) datasets() []string {
	var out []string
	for _, r := range s.refs {
		if r.to != nil {
			out = append(out, r.to.ds.FullName())
		}
	}
	return out
}

// depth is the derivation depth of s's dataset (Figure 6): an upload is
// below 0, a view over only uploads is 0, each layer of derived views adds
// one. A dataset met again on its own path counts 0.
func (s *scope) depth(memo map[*scope]int) int {
	if s.ds.IsWrapper {
		return -1
	}
	if d, ok := memo[s]; ok {
		return d
	}
	memo[s] = 0
	d := 0
	for _, r := range s.refs {
		if r.to != nil {
			d = max(d, r.to.depth(memo)+1)
		}
	}
	memo[s] = d
	return d
}

// grants reports whether user has a direct grant on ds: ownership, public
// visibility, or an explicit share.
func grants(user string, ds *Dataset) bool {
	return ds.Owner == user || ds.Visibility == Public || ds.SharedWith[user]
}

// AccessError reports a permission failure, carrying enough context for
// the REST layer to explain broken ownership chains to users.
type AccessError struct {
	User    string
	Dataset string
	Reason  string
}

func (e *AccessError) Error() string {
	return fmt.Sprintf("catalog: user %q cannot access %q: %s", e.User, e.Dataset, e.Reason)
}

// IsAccessError reports whether err is, or wraps, a permission failure.
func IsAccessError(err error) bool {
	var ae *AccessError
	return errors.As(err, &ae)
}
