// Streaming: serve a benchmark as one interleaved virtual file over real
// HTTP (throttled), load it non-strictly on the client with the stream
// loader — class-level verification as each global-data unit arrives,
// method-level verification as each body arrives — then execute the
// program and report how much earlier each method was runnable compared
// with a strict whole-file loader.
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"nonstrict"
	"nonstrict/internal/pipeline"
	"nonstrict/internal/stream"
)

// throttleWriter flushes and paces the response to ~rate bytes/second.
type throttleWriter struct {
	w    http.ResponseWriter
	fl   http.Flusher
	rate int
}

func (t *throttleWriter) Write(p []byte) (int, error) {
	const chunk = 256
	written := 0
	for off := 0; off < len(p); off += chunk {
		end := off + chunk
		if end > len(p) {
			end = len(p)
		}
		n, err := t.w.Write(p[off:end])
		written += n
		if err != nil {
			return written, err
		}
		if t.fl != nil {
			t.fl.Flush()
		}
		time.Sleep(time.Duration(n) * time.Second / time.Duration(t.rate))
	}
	return written, nil
}

func main() {
	app, err := nonstrict.Benchmark("Hanoi")
	if err != nil {
		log.Fatal(err)
	}
	st, err := pipeline.Build(context.Background(), app, pipeline.OrderStatic)
	if err != nil {
		log.Fatal(err)
	}
	rp := st.Program

	// Server: the interleaved virtual file at ~8 KB/s.
	mux := http.NewServeMux()
	mux.HandleFunc("/app", func(w http.ResponseWriter, req *http.Request) {
		fl, _ := w.(http.Flusher)
		if _, err := (&throttleWriter{w: w, fl: fl, rate: 8 * 1024}).Write(st.Data); err != nil {
			log.Printf("serve: %v", err)
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer srv.Close()

	// Client: non-strict loading with incremental verification.
	resp, err := http.Get("http://" + ln.Addr().String() + "/app")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()

	start := time.Now()
	loader := stream.NewLoader(rp.Name, rp.MainClass, nil)
	type arrival struct {
		ref nonstrict.Ref
		at  time.Duration
	}
	var ready []arrival
	classDone := map[string]time.Duration{}
	if err := loader.Load(resp.Body, func(e stream.Event) {
		switch e.Kind {
		case stream.MethodReady:
			ready = append(ready, arrival{ref: e.Method, at: time.Since(start)})
		case stream.ClassComplete:
			classDone[e.Class] = time.Since(start)
		}
	}); err != nil {
		log.Fatal(err)
	}
	total := time.Since(start)

	streamed, err := loader.Program()
	if err != nil {
		log.Fatal(err)
	}
	m, err := nonstrict.Execute(streamed, nonstrict.RunOptions{Args: app.TestArgs})
	if err != nil {
		log.Fatal(err)
	}
	if err := app.Check(m, false); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("streamed %d classes (%d units, %d bytes) over HTTP in %v\n",
		len(rp.Classes), len(st.Units), loader.Consumed(), total.Round(time.Millisecond))
	fmt.Printf("program verified incrementally, executed %d instructions, self-check ok\n\n", m.Steps())
	fmt.Printf("%-22s %12s %14s %10s\n", "method", "non-strict", "strict (file)", "earlier")
	for i, a := range ready {
		if i >= 8 {
			fmt.Printf("... and %d more\n", len(ready)-8)
			break
		}
		strictAt := classDone[a.ref.Class]
		fmt.Printf("%-22s %12v %14v %10v\n", a.ref,
			a.at.Round(time.Millisecond), strictAt.Round(time.Millisecond),
			(strictAt - a.at).Round(time.Millisecond))
	}
}
