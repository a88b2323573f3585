package apps

import (
	"fmt"
	"strings"

	"nonstrict/internal/bytecode"
	"nonstrict/internal/classfile"
	"nonstrict/internal/jir"
	"nonstrict/internal/vm"
)

func init() { register("BIT", newBIT) }

const bitMask = int64(1)<<61 - 1

// bitCategory maps an opcode to an instruction-category counter, mirrored
// between the Go reference and the generated per-opcode handler classes.
func bitCategory(op bytecode.Op) int {
	info := op.Info()
	switch {
	case info.Branch:
		return 4
	case op == bytecode.INVOKE:
		return 5
	case op == bytecode.GETSTATIC || op == bytecode.PUTSTATIC:
		return 6
	case op == bytecode.NEWARRAY || op == bytecode.ALOAD || op == bytecode.ASTORE || op == bytecode.ARRAYLEN:
		return 7
	case op == bytecode.BIPUSH || op == bytecode.SIPUSH || op == bytecode.IPUSH || op == bytecode.LDC:
		return 0
	case op == bytecode.LOAD || op == bytecode.STORE || op == bytecode.IINC:
		return 1
	case op == bytecode.DUP || op == bytecode.POP || op == bytecode.SWAP:
		return 3
	case op >= bytecode.IADD && op <= bytecode.ISHR:
		return 2
	default:
		return 8 // nop, returns, halt
	}
}

// bitOps returns every valid opcode in numeric order.
func bitOps() []bytecode.Op {
	var ops []bytecode.Op
	for i := 0; i < 256; i++ {
		if op := bytecode.Op(i); op.Valid() {
			ops = append(ops, op)
		}
	}
	return ops
}

// newBIT mirrors the paper's Bytecode Instrumentation Tool: "each basic
// block in the input program is instrumented to report its class and
// method name". The workload is self-hosted: BIT's input corpus is the
// serialized class files of the suite's other programs (Hanoi, TestDes,
// JavaCup), embedded in its Images class. BIT parses each class file —
// constant pool, fields, method headers, bodies — decodes every method's
// bytecode through per-opcode handler classes, finds basic-block leaders,
// and emits an instrumented image (block prologues inserted at leaders),
// checksumming as it goes. The train input analyzes two of the three
// programs.
func newBIT() *App {
	// Build the input corpus from the other benchmarks: every class file
	// of Hanoi and TestDes, then the first 12 of JavaCup for the test
	// input and the first 3 for train, so train is a prefix of test.
	var testImages [][]byte
	cupFrom := 0
	for _, name := range []string{"Hanoi", "TestDes", "JavaCup"} {
		a, err := ByName(name)
		if err != nil {
			panic(err)
		}
		cp, err := jir.Compile(a.IR)
		if err != nil {
			panic(fmt.Sprintf("apps: BIT corpus %s: %v", name, err))
		}
		cupFrom = len(testImages) // after the loop: where JavaCup's files start
		for _, c := range cp.Classes {
			testImages = append(testImages, c.Serialize())
		}
	}
	testImages = testImages[:min(len(testImages), cupFrom+12)]
	trainImages := testImages[:min(len(testImages), cupFrom+3)]

	// ---- Go reference: the analysis, exactly as the IR performs it ------

	refRun := func(images [][]byte) (result int64, errFlag int64) {
		mix := func(cs, v int64) int64 { return (cs*131 + v) & bitMask }
		var csBytes, csOut int64
		var instrs, blocks, branches, calls, methods, classes int64
		cpKinds := make([]int64, 13)
		opCats := make([]int64, 9)
		var errf int64

		for _, img := range images {
			// Pass A: whole-image byte checksum.
			for _, b := range img {
				csBytes = mix(csBytes, int64(b))
			}
			// Structured walk.
			pos := 0
			u8 := func() int64 { v := int64(img[pos]); pos++; return v }
			u16 := func() int64 { v := int64(img[pos])<<8 | int64(img[pos+1]); pos += 2; return v }
			u32 := func() int64 {
				v := int64(img[pos])<<24 | int64(img[pos+1])<<16 | int64(img[pos+2])<<8 | int64(img[pos+3])
				pos += 4
				return v
			}
			foldSkip := func(n int64) {
				for k := int64(0); k < n; k++ {
					csOut = (csOut*33 + int64(img[pos])) & bitMask
					pos++
				}
			}
			if u32() != classfile.Magic {
				errf = 1
				continue
			}
			if u16() != classfile.Version {
				errf = 1
				continue
			}
			classes++
			u16() // this class
			u16() // super class
			cpCount := u16()
			for i := int64(1); i < cpCount; i++ {
				tag := u8()
				if tag >= 0 && tag < 13 {
					cpKinds[tag]++
				} else {
					errf = 1
				}
				switch classfile.ConstKind(tag) {
				case classfile.KUtf8:
					foldSkip(u16())
				case classfile.KInteger, classfile.KFloat:
					u32()
				case classfile.KLong, classfile.KDouble:
					u32()
					u32()
				case classfile.KClass, classfile.KString:
					u16()
				default: // refs and name-and-type
					u16()
					u16()
				}
			}
			for n := u16(); n > 0; n-- { // interfaces
				u16()
			}
			for n := u16(); n > 0; n-- { // fields
				u16() // flags
				u16() // name
				u16() // desc
				for a := u16(); a > 0; a-- {
					u16()
					foldSkip(u32())
				}
			}
			for a := u16(); a > 0; a-- { // class attributes
				u16()
				foldSkip(u32())
			}
			nMethods := u16()
			localLen := make([]int64, nMethods)
			codeLen := make([]int64, nMethods)
			for m := int64(0); m < nMethods; m++ {
				u16() // flags
				u16() // name
				u16() // desc
				u16() // max locals
				u16() // max stack
				localLen[m] = u32()
				codeLen[m] = u32()
			}
			for m := int64(0); m < nMethods; m++ {
				methods++
				foldSkip(localLen[m])
				clen := codeLen[m]
				start := pos
				leaders := make([]int64, clen)
				if clen > 0 {
					leaders[0] = 1
				}
				// Pass 1: decode, categorize, mark leaders.
				for int64(pos-start) < clen {
					pcrel := int64(pos - start)
					op := bytecode.Op(u8())
					if !op.Valid() {
						errf = 1
						pos = start + int(clen)
						break
					}
					info := op.Info()
					w := int64(info.Operand.Width())
					opCats[bitCategory(op)]++
					instrs++
					next := pcrel + 1 + w
					if info.Branch {
						arg := u16()
						if arg >= 32768 {
							arg -= 65536
						}
						branches++
						tgt := pcrel + arg
						if tgt >= 0 && tgt < clen {
							leaders[tgt] = 1
						} else {
							errf = 1
						}
						if next < clen {
							leaders[next] = 1
						}
					} else if op == bytecode.INVOKE {
						u16()
						calls++
					} else {
						pos += int(w)
					}
					if info.Terminal && next < clen {
						leaders[next] = 1
					}
				}
				// Pass 2: emit the instrumented image — a block prologue
				// at every leader, then the instruction bytes.
				pos = start
				for int64(pos-start) < clen {
					pcrel := int64(pos - start)
					if leaders[pcrel] != 0 {
						blocks++
						for k := int64(0); k < 8; k++ {
							csOut = (csOut*33 + 0xB1 + k) & bitMask
						}
					}
					op := bytecode.Op(img[pos])
					w := int64(op.Info().Operand.Width())
					foldSkip(1 + w)
				}
				// Delimiter.
				for k := 0; k < classfile.DelimSize; k++ {
					if img[pos+k] != classfile.Delim[k] {
						errf = 1
					}
				}
				foldSkip(classfile.DelimSize)
			}
		}

		cs := csBytes
		cs = mix(cs, csOut)
		cs = mix(cs, instrs)
		cs = mix(cs, blocks)
		cs = mix(cs, branches)
		cs = mix(cs, calls)
		cs = mix(cs, methods)
		cs = mix(cs, classes)
		for _, v := range cpKinds {
			cs = mix(cs, v)
		}
		for _, v := range opCats {
			cs = mix(cs, v)
		}
		return cs, errf
	}
	wantTest, errTest := refRun(testImages)
	wantTrain, errTrain := refRun(trainImages)
	if errTest != 0 || errTrain != 0 {
		panic("apps: BIT reference flagged its own corpus as malformed")
	}

	ir := bitIR(trainImages, testImages)

	check := func(m *vm.Machine, train bool) error {
		want := wantTest
		if train {
			want = wantTrain
		}
		if err := checkGlobal(m, "Bit", "result", want); err != nil {
			return err
		}
		return checkGlobal(m, "Stats", "errorFlag", 0)
	}

	return &App{
		Name:        "BIT",
		Description: "Bytecode Instrumentation Tool: each basic block in the input program is instrumented to report its class and method name",
		CPI:         147,
		IR:          ir,
		TrainArgs:   []int64{0},
		TestArgs:    []int64{1},
		Check:       check,
	}
}

// bitOpClassName names the per-opcode handler class.
func bitOpClassName(op bytecode.Op) string {
	name := op.String()
	return "Op" + strings.ToUpper(name[:1]) + name[1:]
}

// bitIR emits the analyzer program.
func bitIR(trainImages, testImages [][]byte) *jir.Program {
	I, L, G := jir.I, jir.L, jir.G
	ops := bitOps()

	// Per-opcode handler classes: width (operand bytes), category,
	// branch and terminal flags. Generated from the real ISA table.
	var opClasses []*jir.Class
	for _, op := range ops {
		info := op.Info()
		b2i := func(b bool) int64 {
			if b {
				return 1
			}
			return 0
		}
		opClasses = append(opClasses, &jir.Class{
			Name:  bitOpClassName(op),
			Attrs: []jir.Attr{{Name: "SourceFile", Data: []byte(bitOpClassName(op) + ".java")}},
			Funcs: []*jir.Func{
				{Name: "width", NRet: 1, LocalData: 150, Body: jir.Block(
					jir.Ret(I(int64(info.Operand.Width()))))},
				{Name: "cat", NRet: 1, LocalData: 150, Body: jir.Block(
					jir.Ret(I(int64(bitCategory(op)))))},
				{Name: "isBranch", NRet: 1, LocalData: 120, Body: jir.Block(
					jir.Ret(I(b2i(info.Branch))))},
				{Name: "isTerm", NRet: 1, LocalData: 120, Body: jir.Block(
					jir.Ret(I(b2i(info.Terminal))))},
			},
		})
	}

	// Ops: numeric dispatch into the handler classes.
	dispatch := func(method string) []jir.Stmt {
		var ss []jir.Stmt
		for _, op := range ops {
			ss = append(ss, jir.If(jir.Eq(L("op"), I(int64(op))),
				jir.Block(jir.Ret(jir.Call(bitOpClassName(op), method))), nil))
		}
		ss = append(ss, jir.SetG("Stats", "errorFlag", I(1)), jir.Ret(I(0)))
		return ss
	}
	opsCls := &jir.Class{
		Name:  "Ops",
		Attrs: []jir.Attr{{Name: "SourceFile", Data: []byte("Ops.java")}},
		Funcs: []*jir.Func{
			{Name: "widthOf", Params: []string{"op"}, NRet: 1, LocalData: 1400, Body: dispatch("width")},
			{Name: "catOf", Params: []string{"op"}, NRet: 1, LocalData: 1400, Body: dispatch("cat")},
			{Name: "branchOf", Params: []string{"op"}, NRet: 1, LocalData: 1200, Body: dispatch("isBranch")},
			{Name: "termOf", Params: []string{"op"}, NRet: 1, LocalData: 1200, Body: dispatch("isTerm")},
			{Name: "validOf", Params: []string{"op"}, NRet: 1, LocalData: 64, Body: func() []jir.Stmt {
				var ss []jir.Stmt
				for _, op := range ops {
					ss = append(ss, jir.If(jir.Eq(L("op"), I(int64(op))), jir.Block(jir.Ret(I(1))), nil))
				}
				ss = append(ss, jir.Ret(I(0)))
				return ss
			}()},
		},
	}

	// Images: one method per embedded class file. The test corpus is a
	// superset of the train corpus (train = first len(trainImages)).
	if len(trainImages) > len(testImages) {
		panic("apps: BIT train corpus larger than test corpus")
	}
	for i := range trainImages {
		if string(trainImages[i]) != string(testImages[i]) {
			panic("apps: BIT train corpus must be a prefix of the test corpus")
		}
	}
	imgCls := &jir.Class{
		Name:   "Images",
		Fields: []string{"count"},
		Attrs:  []jir.Attr{{Name: "SourceFile", Data: []byte("Images.java")}},
	}
	imgCls.Funcs = append(imgCls.Funcs, &jir.Func{
		Name: "init", Params: []string{"sel"}, LocalData: 16, Body: jir.Block(
			jir.If(jir.Eq(L("sel"), I(0)),
				jir.Block(jir.SetG("Images", "count", I(int64(len(trainImages))))),
				jir.Block(jir.SetG("Images", "count", I(int64(len(testImages)))))),
			jir.RetV(),
		)})
	imgDispatch := []jir.Stmt{}
	for i, img := range testImages {
		imgCls.Funcs = append(imgCls.Funcs, &jir.Func{
			Name: fmt.Sprintf("img%d", i), NRet: 1, LocalData: 8,
			Body: jir.Block(jir.Ret(jir.Str(string(img)))),
		})
		imgDispatch = append(imgDispatch, jir.If(jir.Eq(L("i"), I(int64(i))),
			jir.Block(jir.Ret(jir.Call("Images", fmt.Sprintf("img%d", i)))), nil))
	}
	imgDispatch = append(imgDispatch, jir.SetG("Stats", "errorFlag", I(1)), jir.Ret(jir.NewArr(I(0))))
	imgCls.Funcs = append(imgCls.Funcs, &jir.Func{
		Name: "image", Params: []string{"i"}, NRet: 1, LocalData: 64, Body: imgDispatch,
	})

	stats := &jir.Class{
		Name: "Stats",
		Fields: []string{"csBytes", "csOut", "instrs", "blocks", "branches",
			"calls", "methods", "classes", "cpKinds", "opCats", "errorFlag"},
		Attrs: []jir.Attr{{Name: "SourceFile", Data: []byte("Stats.java")}},
		Funcs: []*jir.Func{
			{Name: "init", LocalData: 32, Body: jir.Block(
				jir.SetG("Stats", "csBytes", I(0)),
				jir.SetG("Stats", "csOut", I(0)),
				jir.SetG("Stats", "instrs", I(0)),
				jir.SetG("Stats", "blocks", I(0)),
				jir.SetG("Stats", "branches", I(0)),
				jir.SetG("Stats", "calls", I(0)),
				jir.SetG("Stats", "methods", I(0)),
				jir.SetG("Stats", "classes", I(0)),
				jir.SetG("Stats", "cpKinds", jir.NewArr(I(13))),
				jir.SetG("Stats", "opCats", jir.NewArr(I(9))),
				jir.SetG("Stats", "errorFlag", I(0)),
				jir.RetV(),
			)},
			{Name: "mix", Params: []string{"cs", "v"}, NRet: 1, LocalData: 16, Body: jir.Block(
				jir.Ret(jir.And(jir.Add(jir.Mul(L("cs"), I(131)), L("v")), I(bitMask))),
			)},
			{Name: "bump", Params: []string{"which", "i"}, LocalData: 16, Body: jir.Block(
				jir.If(jir.Eq(L("which"), I(0)),
					jir.Block(jir.SetIdx(G("Stats", "cpKinds"), L("i"),
						jir.Add(jir.Idx(G("Stats", "cpKinds"), L("i")), I(1)))),
					jir.Block(jir.SetIdx(G("Stats", "opCats"), L("i"),
						jir.Add(jir.Idx(G("Stats", "opCats"), L("i")), I(1))))),
				jir.RetV(),
			)},
			{Name: "fold", NRet: 1, LocalData: 48, Body: jir.Block(
				jir.Let("cs", G("Stats", "csBytes")),
				jir.Let("cs", jir.Call("Stats", "mix", L("cs"), G("Stats", "csOut"))),
				jir.Let("cs", jir.Call("Stats", "mix", L("cs"), G("Stats", "instrs"))),
				jir.Let("cs", jir.Call("Stats", "mix", L("cs"), G("Stats", "blocks"))),
				jir.Let("cs", jir.Call("Stats", "mix", L("cs"), G("Stats", "branches"))),
				jir.Let("cs", jir.Call("Stats", "mix", L("cs"), G("Stats", "calls"))),
				jir.Let("cs", jir.Call("Stats", "mix", L("cs"), G("Stats", "methods"))),
				jir.Let("cs", jir.Call("Stats", "mix", L("cs"), G("Stats", "classes"))),
				jir.For(jir.Let("i", I(0)), jir.Lt(L("i"), I(13)), jir.Inc("i"), jir.Block(
					jir.Let("cs", jir.Call("Stats", "mix", L("cs"), jir.Idx(G("Stats", "cpKinds"), L("i")))),
				)),
				jir.For(jir.Let("i", I(0)), jir.Lt(L("i"), I(9)), jir.Inc("i"), jir.Block(
					jir.Let("cs", jir.Call("Stats", "mix", L("cs"), jir.Idx(G("Stats", "opCats"), L("i")))),
				)),
				jir.Ret(L("cs")),
			)},
		},
		UnusedStrings: []string{"BIT: Bytecode Instrumenting Tool", "block prologue v1"},
	}

	// Rd: cursor over the current image.
	rd := &jir.Class{
		Name:   "Rd",
		Fields: []string{"buf", "pos"},
		Attrs:  []jir.Attr{{Name: "SourceFile", Data: []byte("Rd.java")}},
		Funcs: []*jir.Func{
			{Name: "open", Params: []string{"b"}, Body: jir.Block(
				jir.SetG("Rd", "buf", L("b")),
				jir.SetG("Rd", "pos", I(0)),
				jir.RetV(),
			)},
			{Name: "u8", NRet: 1, LocalData: 12, Body: jir.Block(
				jir.Let("v", jir.Idx(G("Rd", "buf"), G("Rd", "pos"))),
				jir.SetG("Rd", "pos", jir.Add(G("Rd", "pos"), I(1))),
				jir.Ret(L("v")),
			)},
			{Name: "u16", NRet: 1, LocalData: 12, Body: jir.Block(
				jir.Ret(jir.Add(jir.Mul(jir.Call("Rd", "u8"), I(256)), jir.Call("Rd", "u8"))),
			)},
			{Name: "s16", NRet: 1, LocalData: 12, Body: jir.Block(
				jir.Let("v", jir.Call("Rd", "u16")),
				jir.If(jir.Ge(L("v"), I(32768)), jir.Block(jir.Ret(jir.Sub(L("v"), I(65536)))), nil),
				jir.Ret(L("v")),
			)},
			{Name: "u32", NRet: 1, LocalData: 12, Body: jir.Block(
				jir.Ret(jir.Add(jir.Mul(jir.Call("Rd", "u16"), I(65536)), jir.Call("Rd", "u16"))),
			)},
			{Name: "skip", Params: []string{"n"}, Body: jir.Block(
				jir.SetG("Rd", "pos", jir.Add(G("Rd", "pos"), L("n"))),
				jir.RetV(),
			)},
			{Name: "foldSkip", Params: []string{"n"}, LocalData: 16, Body: jir.Block(
				jir.For(jir.Let("k", I(0)), jir.Lt(L("k"), L("n")), jir.Inc("k"), jir.Block(
					jir.SetG("Stats", "csOut", jir.And(
						jir.Add(jir.Mul(G("Stats", "csOut"), I(33)), jir.Call("Rd", "u8")),
						I(bitMask))),
				)),
				jir.RetV(),
			)},
		},
	}

	check := &jir.Class{
		Name:  "Check",
		Attrs: []jir.Attr{{Name: "SourceFile", Data: []byte("Check.java")}},
		Funcs: []*jir.Func{
			{Name: "bytes", Params: []string{"b"}, LocalData: 16, Body: jir.Block(
				jir.For(jir.Let("k", I(0)), jir.Lt(L("k"), jir.ALen(L("b"))), jir.Inc("k"), jir.Block(
					jir.SetG("Stats", "csBytes", jir.Call("Stats", "mix",
						G("Stats", "csBytes"), jir.Idx(L("b"), L("k")))),
				)),
				jir.RetV(),
			)},
		},
	}

	// PoolScan: constant-pool walk.
	poolScan := &jir.Class{
		Name:  "PoolScan",
		Attrs: []jir.Attr{{Name: "SourceFile", Data: []byte("PoolScan.java")}},
		Funcs: []*jir.Func{
			{Name: "walk", LocalData: 32, Body: jir.Block(
				jir.Let("count", jir.Call("Rd", "u16")),
				jir.For(jir.Let("i", I(1)), jir.Lt(L("i"), L("count")), jir.Inc("i"), jir.Block(
					jir.Do(jir.Call("PoolScan", "entry", jir.Call("Rd", "u8"))),
				)),
				jir.RetV(),
			)},
			{Name: "entry", Params: []string{"tag"}, LocalData: 48, Body: jir.Block(
				jir.If(jir.And(jir.Ge(L("tag"), I(0)), jir.Lt(L("tag"), I(13))),
					jir.Block(jir.Do(jir.Call("Stats", "bump", I(0), L("tag")))),
					jir.Block(jir.SetG("Stats", "errorFlag", I(1)))),
				jir.If(jir.Eq(L("tag"), I(int64(classfile.KUtf8))), jir.Block(
					jir.Do(jir.Call("Rd", "foldSkip", jir.Call("Rd", "u16"))),
					jir.RetV(),
				), nil),
				jir.If(jir.Or(jir.Eq(L("tag"), I(int64(classfile.KInteger))),
					jir.Eq(L("tag"), I(int64(classfile.KFloat)))), jir.Block(
					jir.Do(jir.Call("Rd", "skip", I(4))),
					jir.RetV(),
				), nil),
				jir.If(jir.Or(jir.Eq(L("tag"), I(int64(classfile.KLong))),
					jir.Eq(L("tag"), I(int64(classfile.KDouble)))), jir.Block(
					jir.Do(jir.Call("Rd", "skip", I(8))),
					jir.RetV(),
				), nil),
				jir.If(jir.Or(jir.Eq(L("tag"), I(int64(classfile.KClass))),
					jir.Eq(L("tag"), I(int64(classfile.KString)))), jir.Block(
					jir.Do(jir.Call("Rd", "skip", I(2))),
					jir.RetV(),
				), nil),
				jir.Do(jir.Call("Rd", "skip", I(4))),
				jir.RetV(),
			)},
		},
	}

	// Scratch: per-class method tables.
	scratch := &jir.Class{
		Name:   "Scratch",
		Fields: []string{"localLen", "codeLen"},
		Attrs:  []jir.Attr{{Name: "SourceFile", Data: []byte("Scratch.java")}},
		Funcs: []*jir.Func{
			{Name: "init", Params: []string{"n"}, Body: jir.Block(
				jir.SetG("Scratch", "localLen", jir.NewArr(L("n"))),
				jir.SetG("Scratch", "codeLen", jir.NewArr(L("n"))),
				jir.RetV(),
			)},
		},
	}

	// Loader: class-file walk.
	loader := &jir.Class{
		Name:  "Loader",
		Attrs: []jir.Attr{{Name: "SourceFile", Data: []byte("Loader.java")}},
		Funcs: []*jir.Func{
			{Name: "scanClass", Params: []string{"b"}, LocalData: 64, Body: jir.Block(
				jir.Do(jir.Call("Check", "bytes", L("b"))),
				jir.Do(jir.Call("Rd", "open", L("b"))),
				jir.If(jir.Ne(jir.Call("Rd", "u32"), I(int64(classfile.Magic))), jir.Block(
					jir.SetG("Stats", "errorFlag", I(1)), jir.RetV()), nil),
				jir.If(jir.Ne(jir.Call("Rd", "u16"), I(int64(classfile.Version))), jir.Block(
					jir.SetG("Stats", "errorFlag", I(1)), jir.RetV()), nil),
				jir.SetG("Stats", "classes", jir.Add(G("Stats", "classes"), I(1))),
				jir.Do(jir.Call("Rd", "u16")), // this class
				jir.Do(jir.Call("Rd", "u16")), // super class
				jir.Do(jir.Call("PoolScan", "walk")),
				jir.For(jir.Let("n", jir.Call("Rd", "u16")), jir.Gt(L("n"), I(0)),
					jir.Let("n", jir.Sub(L("n"), I(1))), jir.Block(
						jir.Do(jir.Call("Rd", "u16")),
					)),
				jir.Do(jir.Call("Loader", "scanFields")),
				jir.Do(jir.Call("Loader", "scanAttrs")),
				jir.Let("nm", jir.Call("Rd", "u16")),
				jir.Do(jir.Call("Scratch", "init", L("nm"))),
				jir.For(jir.Let("m", I(0)), jir.Lt(L("m"), L("nm")), jir.Inc("m"), jir.Block(
					jir.Do(jir.Call("Loader", "scanHeader", L("m"))),
				)),
				jir.For(jir.Let("m", I(0)), jir.Lt(L("m"), L("nm")), jir.Inc("m"), jir.Block(
					jir.Do(jir.Call("MethodScan", "run", L("m"))),
				)),
				jir.RetV(),
			)},
			{Name: "scanFields", LocalData: 32, Body: jir.Block(
				jir.For(jir.Let("n", jir.Call("Rd", "u16")), jir.Gt(L("n"), I(0)),
					jir.Let("n", jir.Sub(L("n"), I(1))), jir.Block(
						jir.Do(jir.Call("Rd", "u16")), // flags
						jir.Do(jir.Call("Rd", "u16")), // name
						jir.Do(jir.Call("Rd", "u16")), // desc
						jir.Do(jir.Call("Loader", "scanAttrs")),
					)),
				jir.RetV(),
			)},
			{Name: "scanAttrs", LocalData: 32, Body: jir.Block(
				jir.For(jir.Let("n", jir.Call("Rd", "u16")), jir.Gt(L("n"), I(0)),
					jir.Let("n", jir.Sub(L("n"), I(1))), jir.Block(
						jir.Do(jir.Call("Rd", "u16")),
						jir.Do(jir.Call("Rd", "foldSkip", jir.Call("Rd", "u32"))),
					)),
				jir.RetV(),
			)},
			{Name: "scanHeader", Params: []string{"m"}, LocalData: 24, Body: jir.Block(
				jir.Do(jir.Call("Rd", "u16")), // flags
				jir.Do(jir.Call("Rd", "u16")), // name
				jir.Do(jir.Call("Rd", "u16")), // desc
				jir.Do(jir.Call("Rd", "u16")), // max locals
				jir.Do(jir.Call("Rd", "u16")), // max stack
				jir.SetIdx(G("Scratch", "localLen"), L("m"), jir.Call("Rd", "u32")),
				jir.SetIdx(G("Scratch", "codeLen"), L("m"), jir.Call("Rd", "u32")),
				jir.RetV(),
			)},
		},
		UnusedStrings: []string{"usage: bit <classfiles>"},
	}

	// MethodScan: the two analysis passes over one method body.
	methodScan := &jir.Class{
		Name:  "MethodScan",
		Attrs: []jir.Attr{{Name: "SourceFile", Data: []byte("MethodScan.java")}},
		Funcs: []*jir.Func{
			{Name: "run", Params: []string{"m"}, LocalData: 64, Body: jir.Block(
				jir.SetG("Stats", "methods", jir.Add(G("Stats", "methods"), I(1))),
				jir.Do(jir.Call("Rd", "foldSkip", jir.Idx(G("Scratch", "localLen"), L("m")))),
				jir.Let("clen", jir.Idx(G("Scratch", "codeLen"), L("m"))),
				jir.Let("start", G("Rd", "pos")),
				jir.Let("leaders", jir.NewArr(L("clen"))),
				jir.If(jir.Gt(L("clen"), I(0)),
					jir.Block(jir.SetIdx(L("leaders"), I(0), I(1))), nil),
				jir.Do(jir.Call("MethodScan", "decode", L("start"), L("clen"), L("leaders"))),
				jir.SetG("Rd", "pos", L("start")),
				jir.Do(jir.Call("MethodScan", "emit", L("start"), L("clen"), L("leaders"))),
				jir.Do(jir.Call("MethodScan", "delim")),
				jir.RetV(),
			)},
			{Name: "decode", Params: []string{"start", "clen", "leaders"}, LocalData: 96, Body: jir.Block(
				jir.While(jir.Lt(jir.Sub(G("Rd", "pos"), L("start")), L("clen")), jir.Block(
					jir.Let("pcrel", jir.Sub(G("Rd", "pos"), L("start"))),
					jir.Let("op", jir.Call("Rd", "u8")),
					jir.If(jir.Eq(jir.Call("Ops", "validOf", L("op")), I(0)), jir.Block(
						jir.SetG("Stats", "errorFlag", I(1)),
						jir.SetG("Rd", "pos", jir.Add(L("start"), L("clen"))),
						jir.RetV(),
					), nil),
					jir.Let("w", jir.Call("Ops", "widthOf", L("op"))),
					jir.Do(jir.Call("Stats", "bump", I(1), jir.Call("Ops", "catOf", L("op")))),
					jir.SetG("Stats", "instrs", jir.Add(G("Stats", "instrs"), I(1))),
					jir.Let("next", jir.Add(L("pcrel"), jir.Add(I(1), L("w")))),
					jir.If(jir.Ne(jir.Call("Ops", "branchOf", L("op")), I(0)),
						jir.Block(
							jir.Let("arg", jir.Call("Rd", "s16")),
							jir.SetG("Stats", "branches", jir.Add(G("Stats", "branches"), I(1))),
							jir.Let("tgt", jir.Add(L("pcrel"), L("arg"))),
							jir.If(jir.And(jir.Ge(L("tgt"), I(0)), jir.Lt(L("tgt"), L("clen"))),
								jir.Block(jir.SetIdx(L("leaders"), L("tgt"), I(1))),
								jir.Block(jir.SetG("Stats", "errorFlag", I(1)))),
							jir.If(jir.Lt(L("next"), L("clen")),
								jir.Block(jir.SetIdx(L("leaders"), L("next"), I(1))), nil),
						),
						jir.Block(
							jir.If(jir.Eq(L("op"), I(int64(bytecode.INVOKE))),
								jir.Block(
									jir.Do(jir.Call("Rd", "u16")),
									jir.SetG("Stats", "calls", jir.Add(G("Stats", "calls"), I(1))),
								),
								jir.Block(jir.Do(jir.Call("Rd", "skip", L("w"))))),
						)),
					jir.If(jir.Ne(jir.Call("Ops", "termOf", L("op")), I(0)),
						jir.Block(jir.If(jir.Lt(L("next"), L("clen")),
							jir.Block(jir.SetIdx(L("leaders"), L("next"), I(1))), nil)), nil),
				)),
				jir.RetV(),
			)},
			{Name: "emit", Params: []string{"start", "clen", "leaders"}, LocalData: 96, Body: jir.Block(
				jir.While(jir.Lt(jir.Sub(G("Rd", "pos"), L("start")), L("clen")), jir.Block(
					jir.Let("pcrel", jir.Sub(G("Rd", "pos"), L("start"))),
					jir.If(jir.Ne(jir.Idx(L("leaders"), L("pcrel")), I(0)), jir.Block(
						jir.SetG("Stats", "blocks", jir.Add(G("Stats", "blocks"), I(1))),
						jir.Do(jir.Call("MethodScan", "prologue")),
					), nil),
					jir.Let("op", jir.Idx(G("Rd", "buf"), G("Rd", "pos"))),
					jir.Let("w", jir.Call("Ops", "widthOf", L("op"))),
					jir.Do(jir.Call("Rd", "foldSkip", jir.Add(I(1), L("w")))),
				)),
				jir.RetV(),
			)},
			{Name: "prologue", LocalData: 24, Body: jir.Block(
				jir.For(jir.Let("k", I(0)), jir.Lt(L("k"), I(8)), jir.Inc("k"), jir.Block(
					jir.SetG("Stats", "csOut", jir.And(
						jir.Add(jir.Mul(G("Stats", "csOut"), I(33)),
							jir.Add(I(0xB1), L("k"))), I(bitMask))),
				)),
				jir.RetV(),
			)},
			{Name: "delim", LocalData: 24, Body: func() []jir.Stmt {
				var ss []jir.Stmt
				for k := 0; k < classfile.DelimSize; k++ {
					ss = append(ss, jir.If(jir.Ne(
						jir.Idx(G("Rd", "buf"), jir.Add(G("Rd", "pos"), I(int64(k)))),
						I(int64(classfile.Delim[k]))),
						jir.Block(jir.SetG("Stats", "errorFlag", I(1))), nil))
				}
				ss = append(ss, jir.Do(jir.Call("Rd", "foldSkip", I(classfile.DelimSize))), jir.RetV())
				return ss
			}()},
		},
	}

	driver := &jir.Class{
		Name:   "Bit",
		Fields: []string{"result"},
		Attrs:  []jir.Attr{{Name: "SourceFile", Data: []byte("Bit.java")}},
		Funcs: []*jir.Func{
			{Name: "main", Params: []string{"sel"}, LocalData: 48, Body: jir.Block(
				jir.Do(jir.Call("Stats", "init")),
				jir.Do(jir.Call("Images", "init", L("sel"))),
				jir.Let("n", G("Images", "count")),
				jir.For(jir.Let("i", I(0)), jir.Lt(L("i"), L("n")), jir.Inc("i"), jir.Block(
					jir.Do(jir.Call("Loader", "scanClass", jir.Call("Images", "image", L("i")))),
				)),
				jir.SetG("Bit", "result", jir.Call("Stats", "fold")),
				jir.Halt(),
			)},
		},
	}

	driver.Funcs = append(driver.Funcs, driverUtils("Bit")...)
	classes := []*jir.Class{driver, loader, poolScan, methodScan, opsCls,
		rd, check, stats, scratch, imgCls}
	classes = append(classes, opClasses...)
	return &jir.Program{Name: "BIT", Main: "Bit", Classes: classes}
}
