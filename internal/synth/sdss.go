package synth

import (
	"fmt"
	"math/rand"
	"time"

	"sqlshare/internal/catalog"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
	"sqlshare/internal/workload"
)

// SDSSConfig scales the SDSS-like comparison corpus (§6). The defaults
// produce 20,000 queries; the real workload had 7M with only ~3% distinct
// strings and ~0.3% distinct templates of those — the signature of canned
// example queries and GUI-generated traffic over a fixed engineered schema.
type SDSSConfig struct {
	Seed    int64
	Queries int
	// TableRows sizes the synthetic survey tables.
	TableRows int
}

func (c *SDSSConfig) defaults() {
	if c.Queries <= 0 {
		c.Queries = 20000
	}
	if c.TableRows <= 0 {
		c.TableRows = 800
	}
}

// GenerateSDSS builds the SDSS-like corpus: a fixed astronomy schema
// (photoobj / specobj / photoz), a small population of canned example
// queries repeated verbatim, GUI templates instantiated with random
// literals, and a thin tail of hand-edited variants. Queries are heavy on
// scalar arithmetic (magnitude colors, conversions), reproducing the
// Figure 10 operator mix.
func GenerateSDSS(cfg SDSSConfig) (*workload.Corpus, error) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	cat := catalog.New()
	now := time.Date(2003, 1, 1, 0, 0, 0, 0, time.UTC)
	cat.SetClock(func() time.Time { return now })

	if _, err := cat.CreateUser("sdss", "admin@sdss.org"); err != nil {
		return nil, err
	}
	if _, err := cat.CreateUser("webuser", "web@sdss.org"); err != nil {
		return nil, err
	}
	if err := loadSDSSTables(cat, rng, cfg.TableRows); err != nil {
		return nil, err
	}

	// Canned example queries: copied verbatim from the site's samples, as
	// the paper observed; these dominate the log.
	canned := sdssCannedQueries(rng)
	templates := sdssTemplates()

	log := make([]*catalog.LogEntry, 0, cfg.Queries)
	for i := 0; i < cfg.Queries; i++ {
		now = now.Add(time.Duration(1+rng.Intn(20)) * time.Minute)
		var sql string
		switch r := rng.Float64(); {
		case r < 0.82:
			// Exact repeat of a canned query.
			sql = canned[rng.Intn(len(canned))]
		case r < 0.99:
			// GUI-generated: a template instantiated with fresh literals.
			sql = templates[rng.Intn(len(templates))](rng)
		default:
			// Hand-edited variant: a WHERE-terminated template with an
			// extra predicate appended.
			base := templates[rng.Intn(2)](rng)
			sql = base + fmt.Sprintf(" AND [dec] < %.4f", rng.Float64()*90)
		}
		_, entry, _ := cat.Query("webuser", sql)
		log = append(log, entry)
	}
	return &workload.Corpus{Name: "SDSS", Catalog: cat, Entries: log}, nil
}

// loadSDSSTables creates the engineered survey schema with synthetic data.
func loadSDSSTables(cat *catalog.Catalog, rng *rand.Rand, rows int) error {
	photoobj := storage.NewTable("photoobj", storage.Schema{
		{Name: "objid", Type: sqltypes.Int},
		{Name: "ra", Type: sqltypes.Float},
		{Name: "dec", Type: sqltypes.Float},
		{Name: "u", Type: sqltypes.Float},
		{Name: "g", Type: sqltypes.Float},
		{Name: "r", Type: sqltypes.Float},
		{Name: "i", Type: sqltypes.Float},
		{Name: "z", Type: sqltypes.Float},
		{Name: "type", Type: sqltypes.Int},
		{Name: "flags", Type: sqltypes.Int},
	})
	var prows []storage.Row
	for k := 0; k < rows; k++ {
		mag := 14 + rng.Float64()*10
		prows = append(prows, storage.Row{
			sqltypes.NewInt(int64(1000000 + k)),
			sqltypes.NewFloat(rng.Float64() * 360),
			sqltypes.NewFloat(-90 + rng.Float64()*180),
			sqltypes.NewFloat(mag + rng.Float64()),
			sqltypes.NewFloat(mag + rng.Float64()*0.8),
			sqltypes.NewFloat(mag),
			sqltypes.NewFloat(mag - rng.Float64()*0.5),
			sqltypes.NewFloat(mag - rng.Float64()),
			sqltypes.NewInt(int64(3 + rng.Intn(4))),
			sqltypes.NewInt(int64(rng.Intn(1 << 16))),
		})
	}
	if err := photoobj.Insert(prows); err != nil {
		return err
	}
	specobj := storage.NewTable("specobj", storage.Schema{
		{Name: "specobjid", Type: sqltypes.Int},
		{Name: "bestobjid", Type: sqltypes.Int},
		{Name: "redshift", Type: sqltypes.Float},
		{Name: "class", Type: sqltypes.String},
		{Name: "zwarning", Type: sqltypes.Int},
	})
	classes := []string{"GALAXY", "STAR", "QSO"}
	var srows []storage.Row
	for k := 0; k < rows/3; k++ {
		srows = append(srows, storage.Row{
			sqltypes.NewInt(int64(5000000 + k)),
			sqltypes.NewInt(int64(1000000 + rng.Intn(rows))),
			sqltypes.NewFloat(rng.Float64() * 3),
			sqltypes.NewString(classes[rng.Intn(len(classes))]),
			sqltypes.NewInt(int64(rng.Intn(2))),
		})
	}
	if err := specobj.Insert(srows); err != nil {
		return err
	}
	photoz := storage.NewTable("photoz", storage.Schema{
		{Name: "objid", Type: sqltypes.Int},
		{Name: "zphot", Type: sqltypes.Float},
		{Name: "zerr", Type: sqltypes.Float},
	})
	var zrows []storage.Row
	for k := 0; k < rows/2; k++ {
		zrows = append(zrows, storage.Row{
			sqltypes.NewInt(int64(1000000 + rng.Intn(rows))),
			sqltypes.NewFloat(rng.Float64() * 2),
			sqltypes.NewFloat(rng.Float64() * 0.1),
		})
	}
	if err := photoz.Insert(zrows); err != nil {
		return err
	}
	for name, tbl := range map[string]*storage.Table{
		"photoobj": photoobj, "specobj": specobj, "photoz": photoz,
	} {
		if _, err := cat.CreateDatasetFromTable("sdss", name, tbl, catalog.Meta{
			Description: "SDSS " + name,
		}); err != nil {
			return err
		}
		if err := cat.SetVisibility("sdss", name, catalog.Public); err != nil {
			return err
		}
	}
	return nil
}

// sdssCannedQueries renders the fixed pool of sample queries that users
// copy verbatim. A small pool of exact strings yields the ~3% distinct
// fraction the paper measured.
func sdssCannedQueries(rng *rand.Rand) []string {
	var out []string
	templates := sdssTemplates()
	// Each template contributes a handful of frozen instantiations.
	for _, tpl := range templates {
		for k := 0; k < 3; k++ {
			out = append(out, tpl(rng))
		}
	}
	return out
}

// sdssTemplates returns the GUI/sample query templates: scalar-arithmetic
// heavy (colors u-g, g-r), range predicates on ra/dec, conversions, and a
// UDF-flavoured mix of intrinsic functions — about 200 characters each,
// matching the Figure 7 length concentration.
func sdssTemplates() []func(*rand.Rand) string {
	p := "[sdss.photoobj]"
	s := "[sdss.specobj]"
	z := "[sdss.photoz]"
	// Literals are drawn from coarse grids, as GUI widgets produce: the
	// same parameter values recur across users, so whole query strings
	// repeat — the low-entropy signature of Table 3.
	qf := func(r *rand.Rand, max float64) float64 {
		return max * float64(r.Intn(6)) / 6.0
	}
	return []func(*rand.Rand) string{
		func(r *rand.Rand) string {
			return fmt.Sprintf("SELECT TOP 10 objid, ra, [dec] FROM %s WHERE ra BETWEEN %.4f AND %.4f AND [dec] BETWEEN %.4f AND %.4f",
				p, qf(r, 300), qf(r, 300)+10, qf(r, 80)-40, qf(r, 80)-30)
		},
		func(r *rand.Rand) string {
			return fmt.Sprintf("SELECT objid, u - g AS ug, g - r AS gr, r - i AS ri FROM %s WHERE u - g > %.3f AND g - r < %.3f",
				p, qf(r, 1), qf(r, 2))
		},
		func(r *rand.Rand) string {
			return fmt.Sprintf("SELECT COUNT(*) AS n FROM %s WHERE type = %d AND flags > %d",
				p, 3+r.Intn(4), 100*r.Intn(8))
		},
		func(r *rand.Rand) string {
			return fmt.Sprintf("SELECT p.objid, p.r, s.redshift FROM %s AS p JOIN %s AS s ON p.objid = s.bestobjid WHERE s.redshift BETWEEN %.4f AND %.4f",
				p, s, qf(r, 1), qf(r, 1)+1)
		},
		func(r *rand.Rand) string {
			return fmt.Sprintf("SELECT class, COUNT(*) AS n, AVG(redshift) AS zavg FROM %s WHERE zwarning = 0 GROUP BY class ORDER BY n DESC",
				s)
		},
		func(r *rand.Rand) string {
			return fmt.Sprintf("SELECT objid, SQRT(SQUARE(u - g) + SQUARE(g - r)) AS colordist FROM %s WHERE r < %.3f",
				p, 15+qf(r, 8))
		},
		func(r *rand.Rand) string {
			return fmt.Sprintf("SELECT TOP 50 p.objid, p.ra, p.[dec], z.zphot FROM %s AS p JOIN %s AS z ON p.objid = z.objid WHERE z.zerr < %.4f ORDER BY z.zphot DESC",
				p, z, 0.01*float64(1+r.Intn(5)))
		},
		func(r *rand.Rand) string {
			return fmt.Sprintf("SELECT objid, CAST(FLOOR(r) AS INT) AS rbin FROM %s WHERE r BETWEEN %.2f AND %.2f",
				p, 14+qf(r, 3), 18+qf(r, 5))
		},
		func(r *rand.Rand) string {
			return fmt.Sprintf("SELECT UPPER(class) AS c FROM %s WHERE class LIKE '%s%%'",
				s, []string{"G", "S", "Q"}[r.Intn(3)])
		},
		func(r *rand.Rand) string {
			return fmt.Sprintf("SELECT s.class, AVG(p.u - p.g) AS mean_ug FROM %s AS p JOIN %s AS s ON p.objid = s.bestobjid GROUP BY s.class",
				p, s)
		},
		func(r *rand.Rand) string {
			return fmt.Sprintf("SELECT objid, POWER(10, -0.4 * (r - %.2f)) AS flux FROM %s WHERE r IS NOT NULL AND r < %.2f",
				22.5, p, 16+qf(r, 6))
		},
		func(r *rand.Rand) string {
			return fmt.Sprintf("SELECT objid FROM %s WHERE objid IN (SELECT bestobjid FROM %s WHERE redshift > %.3f)",
				p, s, qf(r, 2))
		},
	}
}
