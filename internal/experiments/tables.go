package experiments

import (
	"context"

	"nonstrict/internal/classfile"
	"nonstrict/internal/transfer"
)

// Links evaluated throughout the paper.
var Links = []transfer.Link{transfer.T1, transfer.Modem}

// Orders evaluated throughout the paper.
var Orders = []OrderKind{SCG, Train, Test}

// ParallelLimits are the concurrency caps of Tables 5 and 6 (0 = ∞).
var ParallelLimits = []int{1, 2, 4, 0}

// Table1Row describes one benchmark (paper Table 1).
type Table1Row struct {
	Name        string
	Description string
}

// Table1 reproduces the benchmark roster.
func (s *Suite) Table1() ([]Table1Row, error) {
	bs, err := s.Benches()
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for _, b := range bs {
		rows = append(rows, Table1Row{Name: b.App.Name, Description: b.App.Description})
	}
	return rows, nil
}

// Table2Row is one benchmark's general statistics (paper Table 2).
type Table2Row struct {
	Name            string
	Files           int
	SizeKB          float64
	DynTestK        float64 // dynamic instructions, thousands, test input
	DynTrainK       float64
	StaticK         float64 // static instructions, thousands
	PctExecuted     float64 // % of methods executed (test input)
	Methods         int
	InstrsPerMethod float64
}

// Table2 reproduces the benchmark statistics table.
func (s *Suite) Table2() ([]Table2Row, error) {
	bs, err := s.Benches()
	if err != nil {
		return nil, err
	}
	var rows []Table2Row
	for _, b := range bs {
		static := b.Prog.StaticInstrs()
		rows = append(rows, Table2Row{
			Name:            b.App.Name,
			Files:           len(b.Prog.Classes),
			SizeKB:          float64(b.Prog.TotalSize()) / 1024,
			DynTestK:        float64(b.TestProfile.TotalInstrs) / 1000,
			DynTrainK:       float64(b.TrainProfile.TotalInstrs) / 1000,
			StaticK:         float64(static) / 1000,
			PctExecuted:     100 * float64(b.TestProfile.Executed()) / float64(b.Prog.NumMethods()),
			Methods:         b.Prog.NumMethods(),
			InstrsPerMethod: float64(static) / float64(b.Prog.NumMethods()),
		})
	}
	return rows, nil
}

// Table3Row is the base-case accounting for one benchmark (paper Table 3).
type Table3Row struct {
	Name        string
	CPI         int64
	ExecM       float64 // execution cycles, millions
	TransferM   [2]float64
	StrictM     [2]float64
	PctTransfer [2]float64 // % of strict total due to transfer
}

// Table3 reproduces the base-case statistics for both links.
func (s *Suite) Table3() ([]Table3Row, error) {
	bs, err := s.Benches()
	if err != nil {
		return nil, err
	}
	var rows []Table3Row
	for _, b := range bs {
		r := Table3Row{
			Name:  b.App.Name,
			CPI:   b.App.CPI,
			ExecM: float64(b.ExecCycles()) / 1e6,
		}
		for i, link := range Links {
			tr := b.TransferCycles(link)
			total := b.StrictTotal(link)
			r.TransferM[i] = float64(tr) / 1e6
			r.StrictM[i] = float64(total) / 1e6
			r.PctTransfer[i] = 100 * float64(tr) / float64(total)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// Table4Row is invocation latency for one benchmark (paper Table 4), in
// millions of cycles, with the percent decrease versus strict.
type Table4Row struct {
	Name         string
	StrictM      [2]float64
	NonStrictM   [2]float64
	NonStrictPct [2]float64
	DataPartM    [2]float64
	DataPartPct  [2]float64
}

// Table4 reproduces invocation latency. Strict waits for the whole first
// class file; non-strict waits for the class's global data plus main;
// data partitioning waits only for the needed-first section, main's GMD,
// and main's body.
func (s *Suite) Table4() ([]Table4Row, error) {
	bs, err := s.Benches()
	if err != nil {
		return nil, err
	}
	var rows []Table4Row
	for _, b := range bs {
		_, rp, lay, part := b.Prepared(SCG)
		mainRef := rp.Main()
		cls := mainRef.Class
		strictBytes := lay.FileSize[cls]
		nsBytes := lay.Avail[mainRef]
		dpBytes := part.NeededFirst[cls] + part.GMD[mainRef] + lay.BodySize[mainRef]

		r := Table4Row{Name: b.App.Name}
		for i, link := range Links {
			cpb := float64(link.CyclesPerByte)
			r.StrictM[i] = float64(strictBytes) * cpb / 1e6
			r.NonStrictM[i] = float64(nsBytes) * cpb / 1e6
			r.DataPartM[i] = float64(dpBytes) * cpb / 1e6
			r.NonStrictPct[i] = 100 * (1 - float64(nsBytes)/float64(strictBytes))
			r.DataPartPct[i] = 100 * (1 - float64(dpBytes)/float64(strictBytes))
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// ParallelRow is one benchmark's normalized execution time under
// parallel file transfer: [order][limit] percent of strict (Tables 5/6).
type ParallelRow struct {
	Name string
	Pct  [3][4]float64 // [SCG,Train,Test][limit 1,2,4,∞]
}

// TableParallelCtx reproduces Table 5 (T1) or Table 6 (modem), selected
// by link, plus the AVG row the paper prints. The benchmark × order ×
// limit grid fans out across the suite's worker pool.
func (s *Suite) TableParallelCtx(ctx context.Context, link transfer.Link) ([]ParallelRow, error) {
	bs, err := s.BenchesCtx(ctx)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for _, b := range bs {
		for _, ord := range Orders {
			for _, limit := range ParallelLimits {
				cells = append(cells, Cell{Bench: b, V: Variant{
					Order: ord, Engine: Parallel, Mode: transfer.NonStrict,
					Limit: limit, Link: link,
				}})
			}
		}
	}
	vals, err := s.runner.EvalGrid(ctx, cells)
	if err != nil {
		return nil, err
	}
	var rows []ParallelRow
	k := 0
	for _, b := range bs {
		r := ParallelRow{Name: b.App.Name}
		for oi := range Orders {
			for li := range ParallelLimits {
				r.Pct[oi][li] = vals[k]
				k++
			}
		}
		rows = append(rows, r)
	}
	return append(rows, avgParallel(rows)), nil
}

func avgParallel(rows []ParallelRow) ParallelRow {
	avg := ParallelRow{Name: "AVG"}
	for oi := 0; oi < 3; oi++ {
		for li := 0; li < 4; li++ {
			var sum float64
			for _, r := range rows {
				sum += r.Pct[oi][li]
			}
			avg.Pct[oi][li] = sum / float64(len(rows))
		}
	}
	return avg
}

// InterleavedRow is one benchmark's normalized execution time under
// interleaved transfer: [link][order] percent of strict (Table 7).
type InterleavedRow struct {
	Name string
	Pct  [2][3]float64
}

// Table7Ctx reproduces the interleaved-transfer results for both links.
func (s *Suite) Table7Ctx(ctx context.Context) ([]InterleavedRow, error) {
	return s.interleaved(ctx, transfer.NonStrict)
}

func (s *Suite) interleaved(ctx context.Context, mode transfer.Mode) ([]InterleavedRow, error) {
	bs, err := s.BenchesCtx(ctx)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for _, b := range bs {
		for _, link := range Links {
			for _, ord := range Orders {
				cells = append(cells, Cell{Bench: b, V: Variant{
					Order: ord, Engine: Interleaved, Mode: mode, Link: link,
				}})
			}
		}
	}
	vals, err := s.runner.EvalGrid(ctx, cells)
	if err != nil {
		return nil, err
	}
	var rows []InterleavedRow
	k := 0
	for _, b := range bs {
		r := InterleavedRow{Name: b.App.Name}
		for li := range Links {
			for oi := range Orders {
				r.Pct[li][oi] = vals[k]
				k++
			}
		}
		rows = append(rows, r)
	}
	return append(rows, avgInterleaved(rows)), nil
}

func avgInterleaved(rows []InterleavedRow) InterleavedRow {
	avg := InterleavedRow{Name: "AVG"}
	for li := 0; li < 2; li++ {
		for oi := 0; oi < 3; oi++ {
			var sum float64
			for _, r := range rows {
				sum += r.Pct[li][oi]
			}
			avg.Pct[li][oi] = sum / float64(len(rows))
		}
	}
	return avg
}

// Table8Row is the global-data and constant-pool byte breakdown (%).
type Table8Row struct {
	Name string
	// Of global data:
	CPool, Field, Attr, Intfc float64
	// Of the constant pool:
	Utf8, Ints, Float, Long, Double, Strings, Class, FRef, MRef, NandT, IMRef float64
}

// Table8 reproduces the global-data breakdown.
func (s *Suite) Table8() ([]Table8Row, error) {
	bs, err := s.Benches()
	if err != nil {
		return nil, err
	}
	var rows []Table8Row
	for _, b := range bs {
		var global, cpool, field, attr, intfc int
		kinds := make(map[classfile.ConstKind]int)
		for _, c := range b.Prog.Classes {
			bd := c.ComputeLayout().Breakdown
			global += bd.Total
			cpool += bd.CPool
			field += bd.Fields
			attr += bd.Attrs
			intfc += bd.Interfaces
			for k, n := range bd.CPByKind {
				kinds[k] += n
			}
		}
		pctG := func(n int) float64 { return 100 * float64(n) / float64(global) }
		pctP := func(k classfile.ConstKind) float64 {
			if cpool == 0 {
				return 0
			}
			return 100 * float64(kinds[k]) / float64(cpool)
		}
		rows = append(rows, Table8Row{
			Name:  b.App.Name,
			CPool: pctG(cpool), Field: pctG(field), Attr: pctG(attr), Intfc: pctG(intfc),
			Utf8: pctP(classfile.KUtf8), Ints: pctP(classfile.KInteger),
			Float: pctP(classfile.KFloat), Long: pctP(classfile.KLong),
			Double: pctP(classfile.KDouble), Strings: pctP(classfile.KString),
			Class: pctP(classfile.KClass), FRef: pctP(classfile.KFieldRef),
			MRef: pctP(classfile.KMethodRef), NandT: pctP(classfile.KNameAndType),
			IMRef: pctP(classfile.KInterfaceMethodRef),
		})
	}
	return rows, nil
}

// Table9Row is the local/global data split and the partition shares.
type Table9Row struct {
	Name           string
	LocalKB        float64
	GlobalKB       float64
	PctNeededFirst float64
	PctInMethods   float64
	PctUnused      float64
}

// Table9 reproduces the data-partition shares, using the static-order
// restructuring (GMD assignment depends on predicted method order).
func (s *Suite) Table9() ([]Table9Row, error) {
	bs, err := s.Benches()
	if err != nil {
		return nil, err
	}
	var rows []Table9Row
	for _, b := range bs {
		_, rp, lay, part := b.Prepared(SCG)
		sum := part.Summarize(rp)
		var local int
		for _, sz := range lay.BodySize {
			local += sz
		}
		rows = append(rows, Table9Row{
			Name:           b.App.Name,
			LocalKB:        float64(local) / 1024,
			GlobalKB:       float64(sum.GlobalBytes) / 1024,
			PctNeededFirst: 100 * float64(sum.NeededFirstBytes) / float64(sum.GlobalBytes),
			PctInMethods:   100 * float64(sum.InMethodsBytes) / float64(sum.GlobalBytes),
			PctUnused:      100 * float64(sum.UnusedBytes) / float64(sum.GlobalBytes),
		})
	}
	return rows, nil
}

// Table10Row is normalized execution time with data partitioning:
// parallel (limit 4) and interleaved, [link][order] (paper Table 10).
type Table10Row struct {
	Name        string
	Parallel    [2][3]float64
	Interleaved [2][3]float64
}

// Table10Ctx reproduces the partitioned-global-data results.
func (s *Suite) Table10Ctx(ctx context.Context) ([]Table10Row, error) {
	bs, err := s.BenchesCtx(ctx)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for _, b := range bs {
		for _, link := range Links {
			for _, ord := range Orders {
				cells = append(cells,
					Cell{Bench: b, V: Variant{
						Order: ord, Engine: Parallel, Mode: transfer.Partitioned,
						Limit: 4, Link: link,
					}},
					Cell{Bench: b, V: Variant{
						Order: ord, Engine: Interleaved, Mode: transfer.Partitioned, Link: link,
					}})
			}
		}
	}
	vals, err := s.runner.EvalGrid(ctx, cells)
	if err != nil {
		return nil, err
	}
	var rows []Table10Row
	k := 0
	for _, b := range bs {
		r := Table10Row{Name: b.App.Name}
		for li := range Links {
			for oi := range Orders {
				r.Parallel[li][oi] = vals[k]
				r.Interleaved[li][oi] = vals[k+1]
				k += 2
			}
		}
		rows = append(rows, r)
	}
	return append(rows, avgTable10(rows)), nil
}

func avgTable10(rows []Table10Row) Table10Row {
	avg := Table10Row{Name: "AVG"}
	for li := 0; li < 2; li++ {
		for oi := 0; oi < 3; oi++ {
			var ps, is float64
			for _, r := range rows {
				ps += r.Parallel[li][oi]
				is += r.Interleaved[li][oi]
			}
			avg.Parallel[li][oi] = ps / float64(len(rows))
			avg.Interleaved[li][oi] = is / float64(len(rows))
		}
	}
	return avg
}

// Figure6Bars is the summary chart: average normalized execution time
// for the four techniques, per order, per link.
type Figure6Bars struct {
	// Bars[link][order][technique]; techniques are PFT, PFT+DP, IFT,
	// IFT+DP (limit 4 for parallel, as in the figure).
	Bars [2][3][4]float64
}

// Figure6Techniques names the bars.
var Figure6Techniques = []string{"Parallel File Transfer", "PFT Data Partitioned", "Interleaved File Transfer", "IFT Data Partitioned"}

// Figure6Ctx reproduces the summary figure.
func (s *Suite) Figure6Ctx(ctx context.Context) (*Figure6Bars, error) {
	bs, err := s.BenchesCtx(ctx)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for _, link := range Links {
		for _, ord := range Orders {
			variants := []Variant{
				{Order: ord, Engine: Parallel, Mode: transfer.NonStrict, Limit: 4, Link: link},
				{Order: ord, Engine: Parallel, Mode: transfer.Partitioned, Limit: 4, Link: link},
				{Order: ord, Engine: Interleaved, Mode: transfer.NonStrict, Link: link},
				{Order: ord, Engine: Interleaved, Mode: transfer.Partitioned, Link: link},
			}
			for _, v := range variants {
				for _, b := range bs {
					cells = append(cells, Cell{Bench: b, V: v})
				}
			}
		}
	}
	vals, err := s.runner.EvalGrid(ctx, cells)
	if err != nil {
		return nil, err
	}
	var out Figure6Bars
	k := 0
	for li := range Links {
		for oi := range Orders {
			for ti := 0; ti < 4; ti++ {
				var sum float64
				for range bs {
					sum += vals[k]
					k++
				}
				out.Bars[li][oi][ti] = sum / float64(len(bs))
			}
		}
	}
	return &out, nil
}
