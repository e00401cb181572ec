package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math/rand"

	cind "cind"

	"cind/internal/bank"
	"cind/internal/detect"
	"cind/internal/instance"
	"cind/internal/parser"
)

// Every input a run uses is generated here from the workload seed; the
// servers receive only the rendered constraint text, CSV bodies and delta
// batches. The shape parameters are fixed, so any seed yields the same kind
// of workload (CFD and CIND violations, non-empty diffs, 35→11 minimize);
// the seed picks the contents.

// Shape of the scan/routed checking relation at scale 1: unique rows whose
// branch decides which CIND they fail, plus (an, ab) collision groups whose
// members disagree pairwise on the customer, so φ2 fires inside each group.
const (
	scanUnique   = 16000
	scanGroups   = 400
	ingestUnique = 8000
	ingestGroups = 250
	groupSize    = 8
	batchDeltas  = 16
	readEvery    = 20   // one full violations stream after every 20th batch
	deleteShare  = 0.05 // 95/5 insert/delete mix
	groupInsert  = 0.05 // share of inserts that join a collision group
)

// table is one relation's rows, in load order.
type table struct {
	rel    string
	header []string
	rows   [][]string
}

// inputs is one dataset: the constraint text a server is given and the
// relations it loads.
type inputs struct {
	spec   string
	tables []table
}

// csvBody renders t as the header-first CSV that PUT ?relation= accepts.
func csvBody(t table) []byte {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	_ = w.Write(t.header) // a bytes.Buffer cannot fail; Error() is checked below
	_ = w.WriteAll(t.rows)
	if err := w.Error(); err != nil {
		panic(fmt.Sprintf("perfbench: render csv: %v", err))
	}
	return buf.Bytes()
}

// load builds the in-process twin of what a server holds after set-up:
// the same constraint text parsed the same way, the same CSV bodies loaded
// in the same order.
func (in *inputs) load() (*cind.Database, *cind.ConstraintSet, error) {
	set, err := cind.ParseConstraints(in.spec)
	if err != nil {
		return nil, nil, fmt.Errorf("parse constraints: %w", err)
	}
	db := cind.NewDatabase(set.Schema())
	for _, t := range in.tables {
		if err := cind.LoadCSV(db, t.rel, bytes.NewReader(csvBody(t)), true); err != nil {
			return nil, nil, fmt.Errorf("load %s: %w", t.rel, err)
		}
	}
	return db, set, nil
}

// bankTables returns the paper's Figure 1 instance, relation by relation.
func bankTables() []table {
	sch := bank.Schema()
	db := bank.Data(sch)
	var out []table
	for _, rel := range sch.Relations() {
		t := table{rel: rel.Name(), header: rel.AttrNames()}
		for _, tup := range db.Instance(rel.Name()).Tuples() {
			row := make([]string, len(tup))
			for i, v := range tup {
				row[i] = v.Str()
			}
			t.rows = append(t.rows, row)
		}
		out = append(out, t)
	}
	return out
}

func bankSpec() string {
	sch := bank.Schema()
	return parser.BankSpec(sch, bank.CFDs(sch), bank.CINDs(sch))
}

// person draws a customer's name, address and phone.
func person(rng *rand.Rand) (cn, ca, cp string) {
	return fmt.Sprintf("Cust %06d", rng.Intn(1e6)),
		fmt.Sprintf("Street %d, %05d", rng.Intn(999)+1, rng.Intn(1e5)),
		fmt.Sprintf("%03d-%07d", rng.Intn(1e3), rng.Intn(1e7))
}

// uniqueBranch picks the branch of a unique checking row: NYC rows are
// clean, EDI rows fail ψ6 (the Figure 1 EDI checking rate is the dirty
// 10.5%), and LON rows fail ψ4 (no interest row for LON).
func uniqueBranch(rng *rand.Rand) string {
	return [...]string{"NYC", "EDI", "LON"}[rng.Intn(3)]
}

// dirtyBank is the Figure 1 bank instance with a large checking relation of
// unique rows and (an, ab) collision groups, shuffled together.
func dirtyBank(rng *rand.Rand, unique, groups int) *inputs {
	tables := bankTables()
	var chk *table
	for i := range tables {
		if tables[i].rel == "checking" {
			chk = &tables[i]
		}
	}
	var rows [][]string
	for i := 0; i < unique; i++ {
		cn, ca, cp := person(rng)
		rows = append(rows, []string{fmt.Sprintf("u%07d", i), cn, ca, cp, uniqueBranch(rng)})
	}
	for g := 0; g < groups; g++ {
		for k := 0; k < groupSize; k++ {
			cn, ca, cp := person(rng)
			rows = append(rows, []string{groupAN(g), cn, ca, cp, "NYC"})
		}
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	chk.rows = append(chk.rows, rows...)
	return &inputs{spec: bankSpec(), tables: tables}
}

func groupAN(g int) string { return fmt.Sprintf("g%06d", g) }

// scaled multiplies a shape parameter by the run's scale, keeping at least
// one of each so a tiny smoke run still has every kind of violation.
func scaled(n int, scale float64) int {
	return max(1, int(float64(n)*scale))
}

// scanInputs is the scan and routed dataset.
func scanInputs(seed int64, scale float64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	return dirtyBank(rng, scaled(scanUnique, scale), scaled(scanGroups, scale))
}

// deltaWire is one delta of a POST /deltas body.
type deltaWire struct {
	Op    string   `json:"op"`
	Rel   string   `json:"rel"`
	Tuple []string `json:"tuple"`
}

// script is the ingest workload's delta script: a fixed function of the
// seed, so every run of a seed applies the same batches in the same order.
// Batches are drawn on demand; the run's length fixes how many.
type script struct {
	rng    *rand.Rand
	groups int
	next   int        // counter for fresh account numbers
	fifo   [][]string // script-inserted rows not yet deleted, oldest first
}

func newScript(seed int64, groups int) *script {
	return &script{rng: rand.New(rand.NewSource(seed ^ 0x5eed_1a57)), groups: groups}
}

// batch returns the script's next batch.
func (s *script) batch() []deltaWire {
	out := make([]deltaWire, batchDeltas)
	for i := range out {
		if s.rng.Float64() < deleteShare && len(s.fifo) > 0 {
			out[i] = deltaWire{Op: "-", Rel: "checking", Tuple: s.fifo[0]}
			s.fifo = s.fifo[1:]
			continue
		}
		cn, ca, cp := person(s.rng)
		var row []string
		if s.rng.Float64() < groupInsert {
			row = []string{groupAN(s.rng.Intn(s.groups)), cn, ca, cp, "NYC"}
		} else {
			row = []string{fmt.Sprintf("n%08d", s.next), cn, ca, cp, uniqueBranch(s.rng)}
			s.next++
		}
		s.fifo = append(s.fifo, row)
		out[i] = deltaWire{Op: "+", Rel: "checking", Tuple: row}
	}
	return out
}

// ingestInputs is the ingest workload's 10k-tuple seed instance and its
// delta script.
func ingestInputs(seed int64, scale float64) (*inputs, *script) {
	rng := rand.New(rand.NewSource(seed))
	groups := scaled(ingestGroups, scale)
	return dirtyBank(rng, scaled(ingestUnique, scale), groups), newScript(seed, groups)
}

// toDeltas converts a script batch to the engine's deltas.
func toDeltas(b []deltaWire) []detect.Delta {
	out := make([]detect.Delta, len(b))
	for i, d := range b {
		t := instance.Consts(d.Tuple...)
		if d.Op == "+" {
			out[i] = detect.Ins(d.Rel, t)
		} else {
			out[i] = detect.Del(d.Rel, t)
		}
	}
	return out
}

// applyBatch applies a script batch to an in-process database, with the
// set semantics the server's Apply has.
func applyBatch(db *cind.Database, b []deltaWire) {
	for _, d := range toDeltas(b) {
		if d.Op == detect.OpInsert {
			db.Insert(d.Rel, d.Tuple)
		} else {
			db.Delete(d.Rel, d.Tuple)
		}
	}
}

func batchBody(b []deltaWire) []byte {
	body, err := json.Marshal(b)
	if err != nil {
		panic(fmt.Sprintf("perfbench: render delta batch: %v", err))
	}
	return body
}

// reasonGoals are the implication request: Example 3.3's goal, which the
// inference system proves, and its converse, which the chase refutes.
const reasonGoals = "cind ex33: account_EDI[at; nil] <= interest[at; nil] { (_ || _) }\n" +
	"cind conv: interest[ab; nil] <= saving[ab; nil] { (_ || _) }\n"

// Minimize drops every rotated copy: 11 bank constraints plus 3 copies of
// each of the 8 CINDs is 35, and minimize keeps 11.
const (
	reasonCopies  = 3
	reasonTotal   = 35
	reasonKept    = 11
	consistencyK  = 40
	reasonDataset = "reason"
)

// reasonInputs is the Figure 1 instance under the bank constraints plus
// three rotated copies of every CIND. Rotating the X/Y lists jointly keeps
// each copy equivalent to its original, so minimize must drop all of them.
// The seed picks the consistency check's random seed.
func reasonInputs(seed int64) (*inputs, int64, error) {
	set, err := cind.ParseConstraints(bankSpec())
	if err != nil {
		return nil, 0, err
	}
	var extra []cind.Constraint
	for copyIdx := 1; copyIdx <= reasonCopies; copyIdx++ {
		for _, c := range set.CINDs() {
			x := append([]string(nil), c.X...)
			y := append([]string(nil), c.Y...)
			if len(x) > 1 {
				rot := copyIdx % len(x)
				x = append(x[rot:], x[:rot]...)
				y = append(y[rot:], y[:rot]...)
			}
			dup, err := cind.NewCIND(set.Schema(), fmt.Sprintf("%s_copy%d", c.ID, copyIdx),
				c.LHSRel, x, c.Xp, c.RHSRel, y, c.Yp, c.Rows)
			if err != nil {
				return nil, 0, err
			}
			extra = append(extra, dup)
		}
	}
	redundant, err := set.Append(extra...)
	if err != nil {
		return nil, 0, err
	}
	if redundant.Len() != reasonTotal {
		return nil, 0, fmt.Errorf("redundant bank set has %d constraints, want %d", redundant.Len(), reasonTotal)
	}
	return &inputs{spec: cind.MarshalConstraints(redundant), tables: bankTables()}, seed, nil
}
