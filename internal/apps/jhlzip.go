package apps

import (
	"nonstrict/internal/jir"
	"nonstrict/internal/vm"
	"nonstrict/internal/xrand"
)

func init() { register("JHLZip", newJHLZip) }

// jhlzip parameters shared by the IR program and the Go reference.
const (
	zipWindow   = 32 // LZ window
	zipMaxMatch = 16
	zipMinMatch = 3
	zipBufCap   = 32768
)

var (
	zipTestSizes  = []int{650, 500, 600, 450, 550, 480}
	zipTrainSizes = []int{500, 450, 400}
)

// newJHLZip mirrors the paper's PKZip file generator: several input files
// are combined into a single archive. The program generates a synthetic
// corpus, LZ-compresses each file over a sliding window, writes
// PKZip-style local headers and a central directory, CRC-32s everything,
// and then decompresses each member to verify the archive.
//
// Classes: JHLZip (driver), Input (corpus), Lz (compressor), Out
// (archive buffer + running CRC), Crc (table-driven CRC-32), Hdr (header
// field writers — the many tiny methods real zip writers have), Unzip
// (verification decompressor).
func newJHLZip() *App {
	rnd := xrand.New(0x21bb0)
	seed := asciiText(rnd, 2400)
	L := len(seed)

	// ---- Go reference ----------------------------------------------------

	var crcTab [256]int64
	for i := 0; i < 256; i++ {
		t := int64(i)
		for k := 0; k < 8; k++ {
			if t&1 != 0 {
				t = (t >> 1) ^ 0xEDB88320
			} else {
				t >>= 1
			}
		}
		crcTab[i] = t
	}
	crcUpd := func(c, b int64) int64 {
		return ((c >> 8) & 0xFFFFFF) ^ crcTab[(c^b)&255]
	}

	fileData := func(i, n int) []int64 {
		d := make([]int64, n)
		for j := 0; j < n; j++ {
			if (j & 63) == (i*7)&63 {
				d[j] = int64((j*(i+3) + 13) % 251)
			} else {
				d[j] = int64(seed[(j+i*17)%L])
			}
		}
		return d
	}

	type refOut struct {
		buf []int64
		crc int64
	}
	wb := func(o *refOut, b int64) {
		b &= 255
		o.buf = append(o.buf, b)
		o.crc = crcUpd(o.crc, b)
	}
	compress := func(o *refOut, d []int64) {
		n := len(d)
		pos := 0
		for pos < n {
			best, bd := 0, 0
			start := pos - zipWindow
			if start < 0 {
				start = 0
			}
			for cand := start; cand < pos; cand++ {
				l := 0
				for l < zipMaxMatch && pos+l < n && d[cand+l] == d[pos+l] {
					l++
				}
				if l > best {
					best, bd = l, pos-cand
				}
			}
			if best >= zipMinMatch {
				wb(o, 1)
				wb(o, int64(bd))
				wb(o, int64(best))
				pos += best
			} else {
				wb(o, 0)
				wb(o, d[pos])
				pos++
			}
		}
	}
	crcOf := func(d []int64) int64 {
		c := int64(0xFFFFFFFF)
		for _, b := range d {
			c = crcUpd(c, b)
		}
		return c
	}
	w16 := func(o *refOut, v int64) { wb(o, v); wb(o, v>>8) }
	w32 := func(o *refOut, v int64) { w16(o, v&0xFFFF); w16(o, (v>>16)&0xFFFF) }
	localHeader := func(o *refOut, i int, rawCRC, rawLen int64) {
		wb(o, 80)
		wb(o, 75)
		wb(o, 3)
		wb(o, 4)
		w16(o, 20)           // version needed
		w16(o, 0)            // flags
		w16(o, 8)            // method
		w16(o, int64(i*3+1)) // mod time
		w16(o, int64(i*5+2)) // mod date
		w32(o, rawCRC)       // crc of raw data
		w32(o, 0)            // compressed size (deferred; zero here)
		w32(o, rawLen)       // uncompressed size
		w16(o, 5)            // name length
		w16(o, 0)            // extra length
		for _, ch := range []int64{102, 105, 108, 101, int64(48 + i)} {
			wb(o, ch) // "fileN"
		}
	}
	centralDir := func(o *refOut, i int, rawCRC, rawLen, off int64) {
		wb(o, 80)
		wb(o, 75)
		wb(o, 1)
		wb(o, 2)
		w16(o, 20)
		w16(o, 20)
		w16(o, 0)
		w16(o, 8)
		w16(o, int64(i*3+1))
		w16(o, int64(i*5+2))
		w32(o, rawCRC)
		w32(o, 0)
		w32(o, rawLen)
		w16(o, 5)
		w16(o, 0)
		w16(o, 0)
		w16(o, 0)
		w16(o, 0)
		w32(o, 0)
		w32(o, off)
		for _, ch := range []int64{102, 105, 108, 101, int64(48 + i)} {
			wb(o, ch)
		}
	}
	endRecord := func(o *refOut, files int, dirOff int64) {
		wb(o, 80)
		wb(o, 75)
		wb(o, 5)
		wb(o, 6)
		w16(o, 0)
		w16(o, 0)
		w16(o, int64(files))
		w16(o, int64(files))
		w32(o, int64(len(o.buf))-dirOff)
		w32(o, dirOff)
		w16(o, 0)
	}
	refRun := func(sizes []int) (result int64, ok int64) {
		o := &refOut{crc: 0xFFFFFFFF}
		type member struct{ off int64 }
		var members []member
		for i, n := range sizes {
			d := fileData(i, n)
			members = append(members, member{off: int64(len(o.buf))})
			localHeader(o, i, crcOf(d), int64(n))
			start := len(o.buf)
			compress(o, d)
			// Verification pass (mirrored by Unzip.check).
			out := make([]int64, 0, n)
			p := start
			for p < len(o.buf) {
				if o.buf[p] == 0 {
					out = append(out, o.buf[p+1])
					p += 2
				} else {
					dd, l := int(o.buf[p+1]), int(o.buf[p+2])
					p += 3
					for k := 0; k < l; k++ {
						out = append(out, out[len(out)-dd])
					}
				}
			}
			good := len(out) == n
			for j := 0; good && j < n; j++ {
				good = out[j] == d[j]
			}
			if good {
				ok++
			}
		}
		dirOff := int64(len(o.buf))
		for i := range sizes {
			d := fileData(i, sizes[i])
			centralDir(o, i, crcOf(d), int64(len(d)), members[i].off)
		}
		endRecord(o, len(sizes), dirOff)
		return o.crc ^ int64(len(o.buf))*0x9E3779B9, ok
	}
	wantTestRes, wantTestOK := refRun(zipTestSizes)
	wantTrainRes, wantTrainOK := refRun(zipTrainSizes)

	// ---- IR program ------------------------------------------------------

	ir := zipIR(seed)

	check := func(m *vm.Machine, train bool) error {
		wantRes, wantOK := wantTestRes, wantTestOK
		if train {
			wantRes, wantOK = wantTrainRes, wantTrainOK
		}
		if err := checkGlobal(m, "JHLZip", "result", wantRes); err != nil {
			return err
		}
		return checkGlobal(m, "JHLZip", "ok", wantOK)
	}

	return &App{
		Name:        "JHLZip",
		Description: "PKZip file generator: input is combined into a single file in PKZip format",
		CPI:         82,
		IR:          ir,
		TrainArgs:   []int64{0},
		TestArgs:    []int64{1},
		Check:       check,
	}
}

// zipIR builds the IR program; split out to keep the construction
// readable. seed is the corpus seed text.
func zipIR(seed string) *jir.Program {
	I, L, G := jir.I, jir.L, jir.G

	input := &jir.Class{
		Name:   "Input",
		Fields: []string{"seed", "files"},
		Attrs:  []jir.Attr{{Name: "SourceFile", Data: []byte("Input.java")}},
		Funcs: []*jir.Func{
			{Name: "init", Params: []string{"sel"}, LocalData: 864, Body: jir.Block(
				jir.SetG("Input", "seed", jir.Str(seed)),
				jir.If(jir.Eq(L("sel"), I(0)),
					jir.Block(jir.SetG("Input", "files", I(int64(len(zipTrainSizes))))),
					jir.Block(jir.SetG("Input", "files", I(int64(len(zipTestSizes)))))),
				jir.RetV(),
			)},
			{Name: "count", NRet: 1, Body: jir.Block(jir.Ret(G("Input", "files")))},
			{Name: "size", Params: []string{"i"}, NRet: 1, LocalData: 576, Body: func() []jir.Stmt {
				// Train sizes are a prefix-compatible dispatch: index i
				// means the same file in both inputs where it exists.
				var ss []jir.Stmt
				for i, n := range zipTestSizes {
					v := n
					if i < len(zipTrainSizes) {
						// When running the train input only indices
						// 0..2 are requested; sizes differ per input, so
						// dispatch on the file count.
						ss = append(ss, jir.If(jir.And(jir.Eq(L("i"), I(int64(i))),
							jir.Eq(G("Input", "files"), I(int64(len(zipTrainSizes))))),
							jir.Block(jir.Ret(I(int64(zipTrainSizes[i])))), nil))
					}
					ss = append(ss, jir.If(jir.Eq(L("i"), I(int64(i))), jir.Block(jir.Ret(I(int64(v)))), nil))
				}
				ss = append(ss, jir.Ret(I(0)))
				return ss
			}()},
			{Name: "data", Params: []string{"i"}, NRet: 1, LocalData: 1152, Body: jir.Block(
				jir.Let("n", jir.Call("Input", "size", L("i"))),
				jir.Let("d", jir.NewArr(L("n"))),
				jir.Let("s", G("Input", "seed")),
				jir.Let("sl", jir.ALen(L("s"))),
				jir.For(jir.Let("j", I(0)), jir.Lt(L("j"), L("n")), jir.Inc("j"), jir.Block(
					jir.If(jir.Eq(jir.And(L("j"), I(63)), jir.And(jir.Mul(L("i"), I(7)), I(63))),
						jir.Block(jir.SetIdx(L("d"), L("j"),
							jir.Rem(jir.Add(jir.Mul(L("j"), jir.Add(L("i"), I(3))), I(13)), I(251)))),
						jir.Block(jir.SetIdx(L("d"), L("j"),
							jir.Idx(L("s"), jir.Rem(jir.Add(L("j"), jir.Mul(L("i"), I(17))), L("sl")))))),
				)),
				jir.Ret(L("d")),
			)},
			{Name: "nameChar", Params: []string{"i", "j"}, NRet: 1, LocalData: 288, Body: jir.Block(
				// "fileN"
				jir.If(jir.Eq(L("j"), I(0)), jir.Block(jir.Ret(I(102))), nil),
				jir.If(jir.Eq(L("j"), I(1)), jir.Block(jir.Ret(I(105))), nil),
				jir.If(jir.Eq(L("j"), I(2)), jir.Block(jir.Ret(I(108))), nil),
				jir.If(jir.Eq(L("j"), I(3)), jir.Block(jir.Ret(I(101))), nil),
				jir.Ret(jir.Add(I(48), L("i"))),
			)},
		},
		UnusedStrings: []string{"JHLZip input corpus v2"},
	}

	crc := &jir.Class{
		Name:   "Crc",
		Fields: []string{"table"},
		Attrs:  []jir.Attr{{Name: "SourceFile", Data: []byte("Crc.java")}},
		Funcs: []*jir.Func{
			{Name: "init", LocalData: 864, Body: jir.Block(
				jir.SetG("Crc", "table", jir.NewArr(I(256))),
				jir.For(jir.Let("i", I(0)), jir.Lt(L("i"), I(256)), jir.Inc("i"), jir.Block(
					jir.SetIdx(G("Crc", "table"), L("i"), jir.Call("Crc", "entry", L("i"))),
				)),
				jir.RetV(),
			)},
			{Name: "entry", Params: []string{"i"}, NRet: 1, LocalData: 576, Body: jir.Block(
				jir.Let("t", L("i")),
				jir.For(jir.Let("k", I(0)), jir.Lt(L("k"), I(8)), jir.Inc("k"), jir.Block(
					jir.If(jir.Ne(jir.And(L("t"), I(1)), I(0)),
						jir.Block(jir.Let("t", jir.Xor(jir.Shr(L("t"), I(1)), I(0xEDB88320)))),
						jir.Block(jir.Let("t", jir.Shr(L("t"), I(1))))),
				)),
				jir.Ret(L("t")),
			)},
			{Name: "update", Params: []string{"c", "b"}, NRet: 1, LocalData: 576, Body: jir.Block(
				jir.Ret(jir.Xor(
					jir.And(jir.Shr(L("c"), I(8)), I(0xFFFFFF)),
					jir.Idx(G("Crc", "table"), jir.And(jir.Xor(L("c"), L("b")), I(255))))),
			)},
			{Name: "of", Params: []string{"d"}, NRet: 1, LocalData: 576, Body: jir.Block(
				jir.Let("c", I(0xFFFFFFFF)),
				jir.For(jir.Let("j", I(0)), jir.Lt(L("j"), jir.ALen(L("d"))), jir.Inc("j"), jir.Block(
					jir.Let("c", jir.Call("Crc", "update", L("c"), jir.Idx(L("d"), L("j")))),
				)),
				jir.Ret(L("c")),
			)},
		},
	}

	out := &jir.Class{
		Name:   "Out",
		Fields: []string{"buf", "len", "crc"},
		Attrs:  []jir.Attr{{Name: "SourceFile", Data: []byte("Out.java")}},
		Funcs: []*jir.Func{
			{Name: "init", LocalData: 576, Body: jir.Block(
				jir.SetG("Out", "buf", jir.NewArr(I(zipBufCap))),
				jir.SetG("Out", "len", I(0)),
				jir.SetG("Out", "crc", I(0xFFFFFFFF)),
				jir.RetV(),
			)},
			{Name: "writeByte", Params: []string{"b"}, LocalData: 432, Body: jir.Block(
				jir.Let("v", jir.And(L("b"), I(255))),
				jir.SetIdx(G("Out", "buf"), G("Out", "len"), L("v")),
				jir.SetG("Out", "len", jir.Add(G("Out", "len"), I(1))),
				jir.SetG("Out", "crc", jir.Call("Crc", "update", G("Out", "crc"), L("v"))),
				jir.RetV(),
			)},
			{Name: "writeU16", Params: []string{"v"}, LocalData: 288, Body: jir.Block(
				jir.Do(jir.Call("Out", "writeByte", L("v"))),
				jir.Do(jir.Call("Out", "writeByte", jir.Shr(L("v"), I(8)))),
				jir.RetV(),
			)},
			{Name: "writeU32", Params: []string{"v"}, LocalData: 288, Body: jir.Block(
				jir.Do(jir.Call("Out", "writeU16", jir.And(L("v"), I(0xFFFF)))),
				jir.Do(jir.Call("Out", "writeU16", jir.And(jir.Shr(L("v"), I(16)), I(0xFFFF)))),
				jir.RetV(),
			)},
			{Name: "length", NRet: 1, Body: jir.Block(jir.Ret(G("Out", "len")))},
			{Name: "at", Params: []string{"p"}, NRet: 1, Body: jir.Block(
				jir.Ret(jir.Idx(G("Out", "buf"), L("p"))),
			)},
		},
	}

	lz := &jir.Class{
		Name:  "Lz",
		Attrs: []jir.Attr{{Name: "SourceFile", Data: []byte("Lz.java")}},
		Funcs: []*jir.Func{
			{Name: "matchLen", Params: []string{"d", "cand", "pos", "n"}, NRet: 1, LocalData: 576, Body: jir.Block(
				jir.Let("l", I(0)),
				jir.While(jir.Lt(L("l"), I(zipMaxMatch)), jir.Block(
					jir.If(jir.Ge(jir.Add(L("pos"), L("l")), L("n")),
						jir.Block(jir.Ret(L("l"))), nil),
					jir.If(jir.Ne(jir.Idx(L("d"), jir.Add(L("cand"), L("l"))),
						jir.Idx(L("d"), jir.Add(L("pos"), L("l")))),
						jir.Block(jir.Ret(L("l"))), nil),
					jir.Inc("l"),
				)),
				jir.Ret(L("l")),
			)},
			{Name: "findMatch", Params: []string{"d", "pos", "n"}, NRet: 1, LocalData: 864, Body: jir.Block(
				// Returns dist<<8 | len of the best window match.
				jir.Let("best", I(0)), jir.Let("bd", I(0)),
				jir.Let("start", jir.Sub(L("pos"), I(zipWindow))),
				jir.If(jir.Lt(L("start"), I(0)), jir.Block(jir.Let("start", I(0))), nil),
				jir.For(jir.Let("cand", L("start")), jir.Lt(L("cand"), L("pos")), jir.Inc("cand"), jir.Block(
					jir.Let("l", jir.Call("Lz", "matchLen", L("d"), L("cand"), L("pos"), L("n"))),
					jir.If(jir.Gt(L("l"), L("best")), jir.Block(
						jir.Let("best", L("l")),
						jir.Let("bd", jir.Sub(L("pos"), L("cand"))),
					), nil),
				)),
				jir.Ret(jir.Or(jir.Shl(L("bd"), I(8)), L("best"))),
			)},
			{Name: "emitLiteral", Params: []string{"b"}, Body: jir.Block(
				jir.Do(jir.Call("Out", "writeByte", I(0))),
				jir.Do(jir.Call("Out", "writeByte", L("b"))),
				jir.RetV(),
			)},
			{Name: "emitMatch", Params: []string{"dist", "len"}, Body: jir.Block(
				jir.Do(jir.Call("Out", "writeByte", I(1))),
				jir.Do(jir.Call("Out", "writeByte", L("dist"))),
				jir.Do(jir.Call("Out", "writeByte", L("len"))),
				jir.RetV(),
			)},
			{Name: "compress", Params: []string{"d"}, LocalData: 1152, Body: jir.Block(
				jir.Let("n", jir.ALen(L("d"))),
				jir.Let("pos", I(0)),
				jir.While(jir.Lt(L("pos"), L("n")), jir.Block(
					jir.Let("m", jir.Call("Lz", "findMatch", L("d"), L("pos"), L("n"))),
					jir.Let("len", jir.And(L("m"), I(255))),
					jir.If(jir.Ge(L("len"), I(zipMinMatch)),
						jir.Block(
							jir.Do(jir.Call("Lz", "emitMatch", jir.Shr(L("m"), I(8)), L("len"))),
							jir.Let("pos", jir.Add(L("pos"), L("len"))),
						),
						jir.Block(
							jir.Do(jir.Call("Lz", "emitLiteral", jir.Idx(L("d"), L("pos")))),
							jir.Inc("pos"),
						)),
				)),
				jir.RetV(),
			)},
		},
		UnusedStrings: []string{"sliding window 32, max match 16"},
	}

	// Hdr: one tiny writer per field, like real archive writers.
	field16 := func(name string, v jir.Expr) *jir.Func {
		return &jir.Func{Name: name, Params: []string{"i"}, LocalData: 216, Body: jir.Block(
			jir.Do(jir.Call("Out", "writeU16", v)), jir.RetV(),
		)}
	}
	hdr := &jir.Class{
		Name:  "Hdr",
		Attrs: []jir.Attr{{Name: "SourceFile", Data: []byte("Hdr.java")}},
		Funcs: []*jir.Func{
			{Name: "sig", Params: []string{"a", "b"}, LocalData: 216, Body: jir.Block(
				jir.Do(jir.Call("Out", "writeByte", I(80))),
				jir.Do(jir.Call("Out", "writeByte", I(75))),
				jir.Do(jir.Call("Out", "writeByte", L("a"))),
				jir.Do(jir.Call("Out", "writeByte", L("b"))),
				jir.RetV(),
			)},
			field16("version", I(20)),
			field16("versionBy", I(20)),
			field16("flags", I(0)),
			field16("method", I(8)),
			field16("modTime", jir.Add(jir.Mul(L("i"), I(3)), I(1))),
			field16("modDate", jir.Add(jir.Mul(L("i"), I(5)), I(2))),
			field16("nameLen", I(5)),
			field16("extraLen", I(0)),
			field16("commentLen", I(0)),
			field16("diskStart", I(0)),
			field16("intAttrs", I(0)),
			{Name: "extAttrs", Params: []string{"i"}, LocalData: 216, Body: jir.Block(
				jir.Do(jir.Call("Out", "writeU32", I(0))), jir.RetV(),
			)},
			{Name: "writeName", Params: []string{"i"}, LocalData: 288, Body: jir.Block(
				jir.For(jir.Let("j", I(0)), jir.Lt(L("j"), I(5)), jir.Inc("j"), jir.Block(
					jir.Do(jir.Call("Out", "writeByte", jir.Call("Input", "nameChar", L("i"), L("j")))),
				)),
				jir.RetV(),
			)},
			{Name: "local", Params: []string{"i", "rawCrc", "rawLen"}, LocalData: 576, Body: jir.Block(
				jir.Do(jir.Call("Hdr", "sig", I(3), I(4))),
				jir.Do(jir.Call("Hdr", "version", L("i"))),
				jir.Do(jir.Call("Hdr", "flags", L("i"))),
				jir.Do(jir.Call("Hdr", "method", L("i"))),
				jir.Do(jir.Call("Hdr", "modTime", L("i"))),
				jir.Do(jir.Call("Hdr", "modDate", L("i"))),
				jir.Do(jir.Call("Out", "writeU32", L("rawCrc"))),
				jir.Do(jir.Call("Out", "writeU32", I(0))),
				jir.Do(jir.Call("Out", "writeU32", L("rawLen"))),
				jir.Do(jir.Call("Hdr", "nameLen", L("i"))),
				jir.Do(jir.Call("Hdr", "extraLen", L("i"))),
				jir.Do(jir.Call("Hdr", "writeName", L("i"))),
				jir.RetV(),
			)},
			{Name: "central", Params: []string{"i", "rawCrc", "rawLen", "off"}, LocalData: 576, Body: jir.Block(
				jir.Do(jir.Call("Hdr", "sig", I(1), I(2))),
				jir.Do(jir.Call("Hdr", "versionBy", L("i"))),
				jir.Do(jir.Call("Hdr", "version", L("i"))),
				jir.Do(jir.Call("Hdr", "flags", L("i"))),
				jir.Do(jir.Call("Hdr", "method", L("i"))),
				jir.Do(jir.Call("Hdr", "modTime", L("i"))),
				jir.Do(jir.Call("Hdr", "modDate", L("i"))),
				jir.Do(jir.Call("Out", "writeU32", L("rawCrc"))),
				jir.Do(jir.Call("Out", "writeU32", I(0))),
				jir.Do(jir.Call("Out", "writeU32", L("rawLen"))),
				jir.Do(jir.Call("Hdr", "nameLen", L("i"))),
				jir.Do(jir.Call("Hdr", "extraLen", L("i"))),
				jir.Do(jir.Call("Hdr", "commentLen", L("i"))),
				jir.Do(jir.Call("Hdr", "diskStart", L("i"))),
				jir.Do(jir.Call("Hdr", "intAttrs", L("i"))),
				jir.Do(jir.Call("Hdr", "extAttrs", L("i"))),
				jir.Do(jir.Call("Out", "writeU32", L("off"))),
				jir.Do(jir.Call("Hdr", "writeName", L("i"))),
				jir.RetV(),
			)},
			{Name: "end", Params: []string{"files", "dirOff"}, LocalData: 576, Body: jir.Block(
				jir.Do(jir.Call("Hdr", "sig", I(5), I(6))),
				jir.Do(jir.Call("Out", "writeU16", I(0))),
				jir.Do(jir.Call("Out", "writeU16", I(0))),
				jir.Do(jir.Call("Out", "writeU16", L("files"))),
				jir.Do(jir.Call("Out", "writeU16", L("files"))),
				jir.Do(jir.Call("Out", "writeU32", jir.Sub(jir.Call("Out", "length"), L("dirOff")))),
				jir.Do(jir.Call("Out", "writeU32", L("dirOff"))),
				jir.Do(jir.Call("Out", "writeU16", I(0))),
				jir.RetV(),
			)},
		},
	}

	unzip := &jir.Class{
		Name:  "Unzip",
		Attrs: []jir.Attr{{Name: "SourceFile", Data: []byte("Unzip.java")}},
		Funcs: []*jir.Func{
			{Name: "check", Params: []string{"i", "start", "end"}, NRet: 1, LocalData: 1152, Body: jir.Block(
				jir.Let("d", jir.Call("Input", "data", L("i"))),
				jir.Let("n", jir.ALen(L("d"))),
				jir.Let("o", jir.NewArr(L("n"))),
				jir.Let("cnt", I(0)),
				jir.Let("p", L("start")),
				jir.While(jir.Lt(L("p"), L("end")), jir.Block(
					jir.If(jir.Eq(jir.Call("Out", "at", L("p")), I(0)),
						jir.Block(
							jir.SetIdx(L("o"), L("cnt"), jir.Call("Out", "at", jir.Add(L("p"), I(1)))),
							jir.Inc("cnt"),
							jir.Let("p", jir.Add(L("p"), I(2))),
						),
						jir.Block(
							jir.Let("dist", jir.Call("Out", "at", jir.Add(L("p"), I(1)))),
							jir.Let("len", jir.Call("Out", "at", jir.Add(L("p"), I(2)))),
							jir.Let("p", jir.Add(L("p"), I(3))),
							jir.For(jir.Let("k", I(0)), jir.Lt(L("k"), L("len")), jir.Inc("k"), jir.Block(
								jir.SetIdx(L("o"), L("cnt"), jir.Idx(L("o"), jir.Sub(L("cnt"), L("dist")))),
								jir.Inc("cnt"),
							)),
						)),
				)),
				jir.If(jir.Ne(L("cnt"), L("n")), jir.Block(jir.Ret(I(0))), nil),
				jir.For(jir.Let("j", I(0)), jir.Lt(L("j"), L("n")), jir.Inc("j"), jir.Block(
					jir.If(jir.Ne(jir.Idx(L("o"), L("j")), jir.Idx(L("d"), L("j"))),
						jir.Block(jir.Ret(I(0))), nil),
				)),
				jir.Ret(I(1)),
			)},
		},
	}

	driver := &jir.Class{
		Name:   "JHLZip",
		Fields: []string{"result", "ok", "offs"},
		Attrs:  []jir.Attr{{Name: "SourceFile", Data: []byte("JHLZip.java")}},
		Funcs: []*jir.Func{
			{Name: "main", Params: []string{"sel"}, LocalData: 1728, Body: jir.Block(
				jir.Do(jir.Call("Crc", "init")),
				jir.Do(jir.Call("Out", "init")),
				jir.Do(jir.Call("Input", "init", L("sel"))),
				jir.Let("n", jir.Call("Input", "count")),
				jir.SetG("JHLZip", "offs", jir.NewArr(L("n"))),
				jir.SetG("JHLZip", "ok", I(0)),
				jir.For(jir.Let("i", I(0)), jir.Lt(L("i"), L("n")), jir.Inc("i"), jir.Block(
					jir.Do(jir.Call("JHLZip", "addFile", L("i"))),
				)),
				jir.Let("dirOff", jir.Call("Out", "length")),
				jir.For(jir.Let("i", I(0)), jir.Lt(L("i"), L("n")), jir.Inc("i"), jir.Block(
					jir.Let("d", jir.Call("Input", "data", L("i"))),
					jir.Do(jir.Call("Hdr", "central", L("i"), jir.Call("Crc", "of", L("d")),
						jir.ALen(L("d")), jir.Idx(G("JHLZip", "offs"), L("i")))),
				)),
				jir.Do(jir.Call("Hdr", "end", L("n"), L("dirOff"))),
				jir.SetG("JHLZip", "result", jir.Xor(G("Out", "crc"),
					jir.Mul(jir.Call("Out", "length"), I(0x9E3779B9)))),
				jir.Halt(),
			)},
			{Name: "addFile", Params: []string{"i"}, LocalData: 1152, Body: jir.Block(
				jir.Let("d", jir.Call("Input", "data", L("i"))),
				jir.SetIdx(G("JHLZip", "offs"), L("i"), jir.Call("Out", "length")),
				jir.Do(jir.Call("Hdr", "local", L("i"), jir.Call("Crc", "of", L("d")), jir.ALen(L("d")))),
				jir.Let("start", jir.Call("Out", "length")),
				jir.Do(jir.Call("Lz", "compress", L("d"))),
				jir.SetG("JHLZip", "ok", jir.Add(G("JHLZip", "ok"),
					jir.Call("Unzip", "check", L("i"), L("start"), jir.Call("Out", "length")))),
				jir.RetV(),
			)},
		},
		UnusedStrings: []string{"usage: jhlzip <files>", "archive.zip"},
	}
	driver.Funcs = append(driver.Funcs, driverUtils("JHLZip")...)

	// Cold paths a real PKZip implementation carries but these inputs
	// never exercise: store-mode members, zip64 records, CRC-16, lazy
	// matching, archive self-test. They stay untransferred until
	// execution ends, which is where non-strict transfer wins.
	lz.Funcs = append(lz.Funcs,
		&jir.Func{Name: "compressStore", Params: []string{"d"}, LocalData: 920, Body: jir.Block(
			jir.For(jir.Let("j", I(0)), jir.Lt(L("j"), jir.ALen(L("d"))), jir.Inc("j"), jir.Block(
				jir.Do(jir.Call("Out", "writeByte", jir.Idx(L("d"), L("j")))),
			)),
			jir.RetV(),
		)},
		&jir.Func{Name: "lazyMatch", Params: []string{"d", "pos", "n"}, NRet: 1, LocalData: 880, Body: jir.Block(
			jir.Let("a", jir.Call("Lz", "findMatch", L("d"), L("pos"), L("n"))),
			jir.If(jir.Lt(jir.Add(L("pos"), I(1)), L("n")), jir.Block(
				jir.Let("b", jir.Call("Lz", "findMatch", L("d"), jir.Add(L("pos"), I(1)), L("n"))),
				jir.If(jir.Gt(jir.And(L("b"), I(255)), jir.And(L("a"), I(255))),
					jir.Block(jir.Ret(L("b"))), nil),
			), nil),
			jir.Ret(L("a")),
		)},
	)
	crc.Funcs = append(crc.Funcs,
		&jir.Func{Name: "crc16", Params: []string{"d"}, NRet: 1, LocalData: 560, Body: jir.Block(
			jir.Let("c", I(0xFFFF)),
			jir.For(jir.Let("j", I(0)), jir.Lt(L("j"), jir.ALen(L("d"))), jir.Inc("j"), jir.Block(
				jir.Let("c", jir.Xor(L("c"), jir.Idx(L("d"), L("j")))),
				jir.For(jir.Let("k", I(0)), jir.Lt(L("k"), I(8)), jir.Inc("k"), jir.Block(
					jir.If(jir.Ne(jir.And(L("c"), I(1)), I(0)),
						jir.Block(jir.Let("c", jir.Xor(jir.Shr(L("c"), I(1)), I(0xA001)))),
						jir.Block(jir.Let("c", jir.Shr(L("c"), I(1))))),
				)),
			)),
			jir.Ret(L("c")),
		)},
	)
	hdr.Funcs = append(hdr.Funcs,
		&jir.Func{Name: "zip64End", Params: []string{"files", "dirOff"}, LocalData: 760, Body: jir.Block(
			jir.Do(jir.Call("Hdr", "sig", I(6), I(6))),
			jir.Do(jir.Call("Out", "writeU32", I(44))),
			jir.Do(jir.Call("Out", "writeU32", I(0))),
			jir.Do(jir.Call("Out", "writeU32", L("files"))),
			jir.Do(jir.Call("Out", "writeU32", L("dirOff"))),
			jir.RetV(),
		)},
		&jir.Func{Name: "comment", Params: []string{"n"}, LocalData: 680, Body: jir.Block(
			jir.Let("s", jir.Str("created by jhlzip (substrate port); no comment recorded")),
			jir.For(jir.Let("j", I(0)), jir.Lt(L("j"), L("n")), jir.Inc("j"), jir.Block(
				jir.Do(jir.Call("Out", "writeByte", jir.Idx(L("s"), jir.Rem(L("j"), jir.ALen(L("s")))))),
			)),
			jir.RetV(),
		)},
		&jir.Func{Name: "extraField", Params: []string{"tag", "n"}, LocalData: 640, Body: jir.Block(
			jir.Do(jir.Call("Out", "writeU16", L("tag"))),
			jir.Do(jir.Call("Out", "writeU16", L("n"))),
			jir.For(jir.Let("j", I(0)), jir.Lt(L("j"), L("n")), jir.Inc("j"), jir.Block(
				jir.Do(jir.Call("Out", "writeByte", I(0))),
			)),
			jir.RetV(),
		)},
	)
	out.Funcs = append(out.Funcs,
		&jir.Func{Name: "writeU64", Params: []string{"v"}, LocalData: 520, Body: jir.Block(
			jir.Do(jir.Call("Out", "writeU32", jir.And(L("v"), I(0xFFFFFFFF)))),
			jir.Do(jir.Call("Out", "writeU32", jir.And(jir.Shr(L("v"), I(32)), I(0xFFFFFFFF)))),
			jir.RetV(),
		)},
	)
	unzip.Funcs = append(unzip.Funcs,
		&jir.Func{Name: "testArchive", Params: []string{"n"}, NRet: 1, LocalData: 940, Body: jir.Block(
			jir.Let("ok", I(0)),
			jir.For(jir.Let("i", I(0)), jir.Lt(L("i"), L("n")), jir.Inc("i"), jir.Block(
				jir.Let("ok", jir.Add(L("ok"),
					jir.Call("Unzip", "check", L("i"), I(0), jir.Call("Out", "length")))),
			)),
			jir.Ret(L("ok")),
		)},
	)
	input.Funcs = append(input.Funcs,
		&jir.Func{Name: "readStdin", Params: []string{"n"}, NRet: 1, LocalData: 720, Body: jir.Block(
			jir.Let("d", jir.NewArr(L("n"))),
			jir.For(jir.Let("j", I(0)), jir.Lt(L("j"), L("n")), jir.Inc("j"), jir.Block(
				jir.SetIdx(L("d"), L("j"), jir.Rem(jir.Mul(L("j"), I(31)), I(251)))),
			),
			jir.Ret(L("d")),
		)},
	)

	return &jir.Program{
		Name:    "JHLZip",
		Main:    "JHLZip",
		Classes: []*jir.Class{driver, input, lz, out, crc, hdr, unzip},
	}
}
