package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"time"
)

type opKind string

const (
	opQuery       opKind = "query"
	opUpload      opKind = "upload"
	opAppend      opKind = "append"
	opMaterialize opKind = "materialize"
)

// op is one generated operation. Every field comes from the workload's
// seed; nothing is decided while the benchmark runs.
type op struct {
	// ID numbers the measured ops of a workload; spans carry it.
	ID   int    `json:"id,omitempty"`
	Kind opKind `json:"kind"`
	User string `json:"user"`
	// Shape labels the op for grouping: the query template, or the kind
	// name for writes.
	Shape string `json:"shape"`
	SQL   string `json:"sql,omitempty"`
	// Target is the dataset an append or materialize acts on (owner-local).
	Target string `json:"target,omitempty"`
	// Name is the dataset the op creates: the upload, the append's batch, or
	// the materialized snapshot.
	Name string `json:"name,omitempty"`
	// Data is the CSV of an upload. An append that carries data uploads it
	// as Name first and then splices it into Target, as one operation.
	Data []byte `json:"data,omitempty"`
	// Rows is the number of data rows in Data, where the output check needs
	// it (pipeline).
	Rows int `json:"rows,omitempty"`
	// At is the op's due time from the start of its round (open loop only).
	At time.Duration `json:"at,omitempty"`
	// Check marks the queries whose result is compared with the oracle's.
	Check bool `json:"check,omitempty"`
}

func (o *op) isWrite() bool { return o.Kind != opQuery }

type dataset struct {
	User, Name string
	Public     bool
	CSV        []byte
	Rows       int // data rows in CSV, where the output check needs it
}

type savedView struct {
	User, Name, SQL string
	Public          bool
}

// setupPlan is what must exist on the server before the measured phase.
type setupPlan struct {
	Users    []string
	Datasets []dataset
	Views    []savedView // created in order, after every dataset
}

func (s *setupPlan) csvBytes() int {
	n := 0
	for _, d := range s.Datasets {
		n += len(d.CSV)
	}
	return n
}

// workload is one named traffic mix, fully generated from a seed.
type workload struct {
	Name string
	// Open marks an open loop: ops are due at their At time whatever the
	// server does, and latency is charged from that due time. Otherwise each
	// client sends its next op when the previous one has completed.
	Open bool
	// Durable runs the server on a data directory with a write-ahead log.
	Durable bool
	// LongShapes names the query shapes left out of short_query_p95_ms; nil
	// means every query is short.
	LongShapes map[string]bool
	Setup      setupPlan
	// Warmup runs once, unmeasured, so lazily built state (column segments,
	// the plan cache's first entries, the connections) exists before timing.
	Warmup []op
	// Rounds[r][c] is the op list of client c in round r. An open-loop
	// workload has one list per round, shared by all connections. There are
	// more rounds than are measured: spares replace rounds the host stole
	// too much CPU from.
	Rounds [][][]op
}

const (
	measuredRounds = 5
	spareRounds    = 2
	// maxStealShare is the hypervisor steal above which a round's wall-clock
	// numbers say more about the host than the server, so the round is
	// measured again on a spare.
	maxStealShare = 0.25
)

// sizes scales a workload to the requested run length. The per-second rates
// were tuned once so that a measured phase lasts about Seconds on the host
// the benchmark was written on; they are constants, so the work is the same
// for every commit measured.
type sizes struct {
	Seconds int
	Quick   bool
}

// opsPerRound turns a tuned ops-per-second figure into a per-round count.
func (s sizes) opsPerRound(perSecond float64) int {
	n := int(perSecond * float64(s.Seconds) / measuredRounds)
	if s.Quick {
		n /= 10
	}
	if n < 4 {
		n = 4
	}
	return n
}

// rounds is how many rounds to generate. The last one is never measured
// by a traced run: its ops are replayed one at a time for the latency
// budget, and must not have been sent before.
func (s sizes) rounds() int {
	if s.Quick {
		return 2
	}
	return measuredRounds + spareRounds
}

// measured is how many rounds count towards a metric.
func (s sizes) measured() int {
	if s.Quick {
		return 1
	}
	return measuredRounds
}

// scaleRows shrinks table sizes for -quick runs.
func (s sizes) scaleRows(n int) int {
	if s.Quick {
		return n / 10
	}
	return n
}

// workloadNames is the fixed set, in the order a full run executes them.
var workloadNames = []string{"point", "analytic", "paper_mix", "pipeline"}

func generate(name string, seed int64, sz sizes) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "point":
		return genPoint(rng, sz), nil
	case "analytic":
		return genAnalytic(rng, sz), nil
	case "paper_mix":
		return genPaperMix(seed, rng, sz)
	case "pipeline":
		return genPipeline(rng, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// csvWriter builds CSV files without the allocation cost of fmt.
type csvWriter struct {
	buf   bytes.Buffer
	first bool
}

func newCSV(header string) *csvWriter {
	w := &csvWriter{first: true}
	w.buf.WriteString(header)
	w.buf.WriteByte('\n')
	return w
}

func (w *csvWriter) sep() {
	if !w.first {
		w.buf.WriteByte(',')
	}
	w.first = false
}

func (w *csvWriter) int(v int) {
	w.sep()
	w.buf.Write(strconv.AppendInt(w.buf.AvailableBuffer(), int64(v), 10))
}

// float writes v with up to six decimals; generators pass multiples of 1/64
// so that sums are exact in binary floating point whatever order the
// engine adds them in.
func (w *csvWriter) float(v float64) {
	w.sep()
	w.buf.Write(strconv.AppendFloat(w.buf.AvailableBuffer(), v, 'f', -1, 64))
}

func (w *csvWriter) str(s string) {
	w.sep()
	w.buf.WriteString(s)
}

func (w *csvWriter) endRow() {
	w.buf.WriteByte('\n')
	w.first = true
}

func (w *csvWriter) bytes() []byte { return w.buf.Bytes() }

var epoch = time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)

// timestamp renders the i-th minute after the epoch the way ingest infers
// a DATETIME column.
func timestamp(i int) string {
	return epoch.Add(time.Duration(i) * time.Minute).Format("2006-01-02 15:04:05")
}

var regions = []string{"north", "south", "east", "west", "arctic", "tropic", "coast", "inland"}

// sixtyFourths draws a value in [0, max) that is a multiple of 1/64.
func sixtyFourths(rng *rand.Rand, max int) float64 {
	return float64(rng.Intn(max*64)) / 64
}
