package apps

import (
	"fmt"

	"nonstrict/internal/jir"
	"nonstrict/internal/vm"
	"nonstrict/internal/xrand"
)

func init() { register("TestDes", newTestDes) }

// newTestDes mirrors the paper's DES encryption/decryption benchmark: it
// key-schedules a 16-round Feistel cipher with eight S-boxes and bit
// permutations, encrypts a string, decrypts it, and verifies the round
// trip. As in real DES implementations, the permutations are unrolled —
// TestDes has by far the largest methods of the suite (Table 2: 174
// instructions per method) — and the S-box rows live in the constant
// pool as packed integers, which is why its pool is integer-dominated
// (Table 8: 52.9% Ints).
//
// The cipher tables are generated deterministically; a Go reference
// implementation built from the same tables validates the ciphertext
// checksum, and the construction itself asserts decrypt∘encrypt = id.
func newTestDes() *App {
	const (
		m28 = int64(0xFFFFFFF)
		m32 = int64(0xFFFFFFFF)
	)
	rnd := xrand.New(0xDE5DE5)

	ipTab := randPerm(rnd, 64)
	fpTab := invertPerm(ipTab)
	eTab := make([]int, 48)
	for i := range eTab {
		eTab[i] = rnd.Intn(32)
	}
	pTab := randPerm(rnd, 32)
	pc1Tab := randPerm(rnd, 64)[:56]
	pc2Tab := randPerm(rnd, 56)[:48]
	rots := make([]int, 16) // 1 or 2 per round
	var rotBits int64
	for i := range rots {
		rots[i] = 1 + rnd.Intn(2)
		rotBits |= int64(rots[i]-1) << i
	}
	var sbox [8][4]int64 // packed rows: 16 nibbles each
	for b := 0; b < 8; b++ {
		for row := 0; row < 4; row++ {
			var v int64
			for col := 0; col < 16; col++ {
				v |= int64(rnd.Intn(16)) << (4 * col)
			}
			sbox[b][row] = v
		}
	}
	rc := make([]int64, 16) // per-round key whitening constants
	for i := range rc {
		rc[i] = rnd.Int63() & ((1 << 48) - 1)
	}
	key := rnd.Int63()
	msgA := asciiText(rnd, 64) // train: 8 blocks
	msgB := asciiText(rnd, 72) // test: 9 blocks

	// ---- Go reference ---------------------------------------------------

	permute := func(x int64, tab []int) int64 {
		var o int64
		for i, s := range tab {
			o |= ((x >> s) & 1) << i
		}
		return o
	}
	fref := func(r, k int64) int64 {
		x := permute(r, eTab) ^ k
		var o int64
		for b := 0; b < 8; b++ {
			six := (x >> (6 * b)) & 63
			row := ((six>>5)&1)<<1 | six&1
			col := (six >> 1) & 15
			o |= ((sbox[b][row] >> (col * 4)) & 15) << (4 * b)
		}
		return permute(o, pTab)
	}
	schedule := func() []int64 {
		p := permute(key, pc1Tab)
		c, d := p&m28, (p>>28)&m28
		ks := make([]int64, 16)
		for i := 0; i < 16; i++ {
			n := rots[i]
			c = (c<<n | c>>(28-n)) & m28
			d = (d<<n | d>>(28-n)) & m28
			ks[i] = permute(c|d<<28, pc2Tab) ^ rc[i]
		}
		return ks
	}
	keys := schedule()
	crypt := func(b int64, dec bool) int64 {
		x := permute(b, ipTab)
		l, r := x&m32, (x>>32)&m32
		for i := 0; i < 16; i++ {
			k := keys[i]
			if dec {
				k = keys[15-i]
			}
			l, r = r, l^fref(r, k)
		}
		l, r = r, l // final swap
		return permute(l|r<<32, fpTab)
	}
	// Construction-time sanity: the cipher must invert.
	probe := xrand.New(42)
	for i := 0; i < 8; i++ {
		b := probe.Int63()
		if got := crypt(crypt(b, false), true); got != b {
			panic(fmt.Sprintf("apps: TestDes cipher does not invert: %x -> %x", b, got))
		}
	}
	packBlocks := func(msg string) []int64 {
		n := len(msg) / 8
		out := make([]int64, n)
		for i := 0; i < n; i++ {
			var b int64
			for j := 0; j < 8; j++ {
				b |= int64(msg[i*8+j]) << (8 * j)
			}
			out[i] = b
		}
		return out
	}
	refRun := func(msg string) (checksum int64, blocks int64) {
		bs := packBlocks(msg)
		var cs int64
		for _, b := range bs {
			c := crypt(b, false)
			cs = cs*0x100000001B3 ^ c
			if crypt(c, true) != b {
				panic("apps: TestDes reference round-trip failed")
			}
		}
		return cs, int64(len(bs))
	}
	wantTrainCS, wantTrainN := refRun(msgA)
	wantTestCS, wantTestN := refRun(msgB)

	// ---- IR program ------------------------------------------------------

	// permFunc builds a fully unrolled bit permutation method.
	permFunc := func(name string, tab []int, localData int) *jir.Func {
		body := []jir.Stmt{jir.Let("o", jir.I(0))}
		for i, s := range tab {
			body = append(body, jir.Let("o", jir.Or(jir.L("o"),
				jir.Shl(jir.And(jir.Shr(jir.L("x"), jir.I(int64(s))), jir.I(1)), jir.I(int64(i))))))
		}
		body = append(body, jir.Ret(jir.L("o")))
		return &jir.Func{Name: name, Params: []string{"x"}, NRet: 1, Body: body, LocalData: localData}
	}

	des := &jir.Class{
		Name:   "Des",
		Fields: []string{"keys", "rc"},
		Attrs:  []jir.Attr{{Name: "SourceFile", Data: []byte("Des.java")}},
		UnusedStrings: []string{
			"DES-like Feistel network, 16 rounds",
		},
	}
	des.Funcs = append(des.Funcs,
		permFunc("ip", ipTab, 3200),
		permFunc("fp", fpTab, 3200),
		permFunc("expand", eTab, 2400),
		permFunc("pperm", pTab, 1600),
		permFunc("pc1", pc1Tab, 2800),
		permFunc("pc2", pc2Tab, 2400),
	)

	// Per-S-box lookup methods; the four packed rows of each box are
	// wide constants and thus constant-pool entries.
	for b := 0; b < 8; b++ {
		rows := sbox[b]
		f := &jir.Func{
			Name: fmt.Sprintf("sbox%d", b+1), Params: []string{"six"}, NRet: 1, LocalData: 1331,
			Body: jir.Block(
				jir.Let("row", jir.Or(
					jir.Shl(jir.And(jir.Shr(jir.L("six"), jir.I(5)), jir.I(1)), jir.I(1)),
					jir.And(jir.L("six"), jir.I(1)))),
				jir.Let("col", jir.And(jir.Shr(jir.L("six"), jir.I(1)), jir.I(15))),
				jir.Let("sh", jir.Mul(jir.L("col"), jir.I(4))),
				jir.If(jir.Eq(jir.L("row"), jir.I(0)),
					jir.Block(jir.Ret(jir.And(jir.Shr(jir.I(rows[0]), jir.L("sh")), jir.I(15)))), nil),
				jir.If(jir.Eq(jir.L("row"), jir.I(1)),
					jir.Block(jir.Ret(jir.And(jir.Shr(jir.I(rows[1]), jir.L("sh")), jir.I(15)))), nil),
				jir.If(jir.Eq(jir.L("row"), jir.I(2)),
					jir.Block(jir.Ret(jir.And(jir.Shr(jir.I(rows[2]), jir.L("sh")), jir.I(15)))), nil),
				jir.Ret(jir.And(jir.Shr(jir.I(rows[3]), jir.L("sh")), jir.I(15))),
			),
		}
		des.Funcs = append(des.Funcs, f)
	}

	// fFunc: expansion, key mixing, the eight S-boxes, and the P box.
	fBody := []jir.Stmt{
		jir.Let("x", jir.Xor(jir.Call("Des", "expand", jir.L("r")), jir.L("k"))),
		jir.Let("o", jir.I(0)),
	}
	for b := 0; b < 8; b++ {
		fBody = append(fBody, jir.Let("o", jir.Or(jir.L("o"),
			jir.Shl(jir.Call("Des", fmt.Sprintf("sbox%d", b+1),
				jir.And(jir.Shr(jir.L("x"), jir.I(int64(6*b))), jir.I(63))),
				jir.I(int64(4*b))))))
	}
	fBody = append(fBody, jir.Ret(jir.Call("Des", "pperm", jir.L("o"))))
	des.Funcs = append(des.Funcs, &jir.Func{
		Name: "fFunc", Params: []string{"r", "k"}, NRet: 1, Body: fBody, LocalData: 166,
	})

	des.Funcs = append(des.Funcs,
		&jir.Func{Name: "rotate", Params: []string{"c", "n"}, NRet: 1, LocalData: 32, Body: jir.Block(
			jir.Ret(jir.And(jir.Or(
				jir.Shl(jir.L("c"), jir.L("n")),
				jir.Shr(jir.L("c"), jir.Sub(jir.I(28), jir.L("n")))), jir.I(m28))),
		)},
		&jir.Func{Name: "initTables", LocalData: 132, Body: func() []jir.Stmt {
			ss := []jir.Stmt{jir.SetG("Des", "rc", jir.NewArr(jir.I(16)))}
			for i, v := range rc {
				ss = append(ss, jir.SetIdx(jir.G("Des", "rc"), jir.I(int64(i)), jir.I(v)))
			}
			return append(ss, jir.RetV())
		}()},
		&jir.Func{Name: "keySchedule", Params: []string{"key"}, LocalData: 98, Body: jir.Block(
			jir.Let("p", jir.Call("Des", "pc1", jir.L("key"))),
			jir.Let("c", jir.And(jir.L("p"), jir.I(m28))),
			jir.Let("d", jir.And(jir.Shr(jir.L("p"), jir.I(28)), jir.I(m28))),
			jir.SetG("Des", "keys", jir.NewArr(jir.I(16))),
			jir.For(jir.Let("i", jir.I(0)), jir.Lt(jir.L("i"), jir.I(16)), jir.Inc("i"), jir.Block(
				jir.Let("n", jir.Add(jir.I(1), jir.And(jir.Shr(jir.I(rotBits), jir.L("i")), jir.I(1)))),
				jir.Let("c", jir.Call("Des", "rotate", jir.L("c"), jir.L("n"))),
				jir.Let("d", jir.Call("Des", "rotate", jir.L("d"), jir.L("n"))),
				jir.SetIdx(jir.G("Des", "keys"), jir.L("i"),
					jir.Xor(jir.Call("Des", "pc2", jir.Or(jir.L("c"), jir.Shl(jir.L("d"), jir.I(28)))),
						jir.Idx(jir.G("Des", "rc"), jir.L("i")))),
			)),
			jir.RetV(),
		)},
		&jir.Func{Name: "round", Params: []string{"r", "i", "dec"}, NRet: 1, LocalData: 49, Body: jir.Block(
			// Selects the round key (forward or reversed) and applies f.
			jir.Let("ki", jir.L("i")),
			jir.If(jir.Ne(jir.L("dec"), jir.I(0)), jir.Block(
				jir.Let("ki", jir.Sub(jir.I(15), jir.L("i"))),
			), nil),
			jir.Ret(jir.Call("Des", "fFunc", jir.L("r"), jir.Idx(jir.G("Des", "keys"), jir.L("ki")))),
		)},
		&jir.Func{Name: "crypt", Params: []string{"b", "dec"}, NRet: 1, LocalData: 132, Body: jir.Block(
			jir.Let("x", jir.Call("Des", "ip", jir.L("b"))),
			jir.Let("l", jir.And(jir.L("x"), jir.I(m32))),
			jir.Let("r", jir.And(jir.Shr(jir.L("x"), jir.I(32)), jir.I(m32))),
			jir.For(jir.Let("i", jir.I(0)), jir.Lt(jir.L("i"), jir.I(16)), jir.Inc("i"), jir.Block(
				jir.Let("t", jir.Xor(jir.L("l"), jir.Call("Des", "round", jir.L("r"), jir.L("i"), jir.L("dec")))),
				jir.Let("l", jir.L("r")),
				jir.Let("r", jir.L("t")),
			)),
			// Final swap, recombine, inverse permutation.
			jir.Ret(jir.Call("Des", "fp", jir.Or(jir.L("r"), jir.Shl(jir.L("l"), jir.I(32))))),
		)},
		&jir.Func{Name: "encryptBlock", Params: []string{"b"}, NRet: 1, LocalData: 32, Body: jir.Block(
			jir.Ret(jir.Call("Des", "crypt", jir.L("b"), jir.I(0))),
		)},
		&jir.Func{Name: "decryptBlock", Params: []string{"b"}, NRet: 1, LocalData: 32, Body: jir.Block(
			jir.Ret(jir.Call("Des", "crypt", jir.L("b"), jir.I(1))),
		)},
	)

	msg := &jir.Class{
		Name:   "Msg",
		Fields: []string{"blocks", "cipher", "count"},
		Attrs:  []jir.Attr{{Name: "SourceFile", Data: []byte("Msg.java")}},
		Funcs: []*jir.Func{
			{Name: "load", Params: []string{"sel"}, LocalData: 49, Body: jir.Block(
				jir.If(jir.Eq(jir.L("sel"), jir.I(0)),
					jir.Block(jir.Do(jir.Call("Msg", "loadA")), jir.RetV()), nil),
				jir.Do(jir.Call("Msg", "loadB")),
				jir.RetV(),
			)},
			{Name: "loadA", LocalData: 49, Body: jir.Block(
				jir.Let("s", jir.Str(msgA)),
				jir.Do(jir.Call("Msg", "packAll", jir.L("s"))),
				jir.RetV(),
			)},
			{Name: "loadB", LocalData: 49, Body: jir.Block(
				jir.Let("s", jir.Str(msgB)),
				jir.Do(jir.Call("Msg", "packAll", jir.L("s"))),
				jir.RetV(),
			)},
			{Name: "packAll", Params: []string{"s"}, LocalData: 66, Body: jir.Block(
				jir.Let("n", jir.Div(jir.ALen(jir.L("s")), jir.I(8))),
				jir.SetG("Msg", "count", jir.L("n")),
				jir.SetG("Msg", "blocks", jir.NewArr(jir.L("n"))),
				jir.SetG("Msg", "cipher", jir.NewArr(jir.L("n"))),
				jir.For(jir.Let("i", jir.I(0)), jir.Lt(jir.L("i"), jir.L("n")), jir.Inc("i"), jir.Block(
					jir.SetIdx(jir.G("Msg", "blocks"), jir.L("i"),
						jir.Call("Msg", "pack8", jir.L("s"), jir.Mul(jir.L("i"), jir.I(8)))),
				)),
				jir.RetV(),
			)},
			{Name: "pack8", Params: []string{"s", "off"}, NRet: 1, LocalData: 49, Body: jir.Block(
				jir.Let("b", jir.I(0)),
				jir.For(jir.Let("j", jir.I(0)), jir.Lt(jir.L("j"), jir.I(8)), jir.Inc("j"), jir.Block(
					jir.Let("b", jir.Or(jir.L("b"),
						jir.Shl(jir.Idx(jir.L("s"), jir.Add(jir.L("off"), jir.L("j"))),
							jir.Mul(jir.L("j"), jir.I(8))))),
				)),
				jir.Ret(jir.L("b")),
			)},
			{Name: "blockAt", Params: []string{"i"}, NRet: 1, Body: jir.Block(
				jir.Ret(jir.Idx(jir.G("Msg", "blocks"), jir.L("i"))),
			)},
			{Name: "cipherAt", Params: []string{"i"}, NRet: 1, Body: jir.Block(
				jir.Ret(jir.Idx(jir.G("Msg", "cipher"), jir.L("i"))),
			)},
			{Name: "setCipher", Params: []string{"i", "c"}, Body: jir.Block(
				jir.SetIdx(jir.G("Msg", "cipher"), jir.L("i"), jir.L("c")),
				jir.RetV(),
			)},
		},
	}

	driver := &jir.Class{
		Name:   "TestDes",
		Fields: []string{"result", "ok"},
		Attrs:  []jir.Attr{{Name: "SourceFile", Data: []byte("TestDes.java")}},
		Funcs: []*jir.Func{
			{Name: "main", Params: []string{"sel"}, LocalData: 98, Body: jir.Block(
				jir.Do(jir.Call("Des", "initTables")),
				jir.Do(jir.Call("Des", "keySchedule", jir.I(key))),
				jir.Do(jir.Call("Msg", "load", jir.L("sel"))),
				jir.Let("n", jir.G("Msg", "count")),
				jir.Let("cs", jir.I(0)),
				jir.For(jir.Let("i", jir.I(0)), jir.Lt(jir.L("i"), jir.L("n")), jir.Inc("i"), jir.Block(
					jir.Let("c", jir.Call("Des", "encryptBlock", jir.Call("Msg", "blockAt", jir.L("i")))),
					jir.Do(jir.Call("Msg", "setCipher", jir.L("i"), jir.L("c"))),
					jir.Let("cs", jir.Xor(jir.Mul(jir.L("cs"), jir.I(0x100000001B3)), jir.L("c"))),
				)),
				jir.SetG("TestDes", "result", jir.L("cs")),
				jir.SetG("TestDes", "ok", jir.Call("TestDes", "verify", jir.L("n"))),
				jir.Halt(),
			)},
			{Name: "verify", Params: []string{"n"}, NRet: 1, LocalData: 66, Body: jir.Block(
				jir.Let("ok", jir.I(0)),
				jir.For(jir.Let("i", jir.I(0)), jir.Lt(jir.L("i"), jir.L("n")), jir.Inc("i"), jir.Block(
					jir.Let("p", jir.Call("Des", "decryptBlock", jir.Call("Msg", "cipherAt", jir.L("i")))),
					jir.If(jir.Eq(jir.L("p"), jir.Call("Msg", "blockAt", jir.L("i"))),
						jir.Block(jir.Inc("ok")), nil),
				)),
				jir.Ret(jir.L("ok")),
			)},
		},
		UnusedStrings: []string{"usage: testdes <message>"},
	}
	driver.Funcs = append(driver.Funcs, driverUtils("TestDes")...)

	ir := &jir.Program{
		Name:    "TestDes",
		Main:    "TestDes",
		Classes: []*jir.Class{driver, des, msg},
	}

	check := func(m *vm.Machine, train bool) error {
		wantCS, wantN := wantTestCS, wantTestN
		if train {
			wantCS, wantN = wantTrainCS, wantTrainN
		}
		if err := checkGlobal(m, "TestDes", "result", wantCS); err != nil {
			return err
		}
		return checkGlobal(m, "TestDes", "ok", wantN)
	}

	return &App{
		Name:        "TestDes",
		Description: "DES encryption/decryption algorithm: encrypts a string then decrypts it",
		CPI:         484,
		IR:          ir,
		TrainArgs:   []int64{0},
		TestArgs:    []int64{1},
		Check:       check,
	}
}
