// Command autodiag inspects the diagnostic bundles the platform's
// flight recorder cuts on health escalations, safe-stop or on demand,
// and can serve a bundle over HTTP with the platform's observability
// endpoints (Prometheus scrape, DLT tail).
//
// Usage:
//
//	autodiag summary  bundle                      one-screen overview
//	autodiag dlt      [-min warn] [-grep re] [-app A] [-ctx C] [-json] bundle
//	autodiag spans    [-kind k] bundle            span/instant lanes
//	autodiag metrics  [-grep re] [-json] bundle   metric snapshot
//	autodiag series   [-grep re] bundle           sampled virtual-time series
//	autodiag diff     before after                metric delta between bundles
//	autodiag chrome   [-o trace.json] bundle      chrome://tracing export, a lane per span kind
//	autodiag serve    [-addr :9077] [-every 100ms] [-loop] bundle
//
// serve exposes /metrics (Prometheus text 0.0.4), /metrics.json, /dlt
// (text, ?format=json, ?follow=1 live tail), /bundle (gzip download)
// and /summary. The bundle's DLT records are replayed into the live
// tail one every -every, so followers see the black box play back.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"sort"
	"time"

	"autorte/internal/obs"
)

func main() {
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	if err := run(os.Stdout, cmd, args); err != nil {
		fmt.Fprintln(os.Stderr, "autodiag:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: autodiag <command> [flags] bundle...

commands:
  summary  bundle                     one-screen overview of a bundle
  dlt      [-min L] [-grep re] [-app A] [-ctx C] [-json] bundle
  spans    [-kind k] bundle           span/instant lanes from the flight recorder
  metrics  [-grep re] [-json] bundle  metric snapshot
  series   [-grep re] bundle          sampled virtual-time series
  diff     before after               metric delta between two bundles
  chrome   [-o file] bundle           export as chrome://tracing JSON
  serve    [-addr :9077] [-every d] [-loop] bundle
`)
}

func run(w io.Writer, cmd string, args []string) error {
	switch cmd {
	case "summary":
		return withBundle(cmd, args, nil, func(b *obs.Bundle) error { return b.WriteSummary(w) })
	case "dlt":
		return cmdDLT(w, args)
	case "spans":
		return cmdSpans(w, args)
	case "metrics":
		return cmdMetrics(w, args)
	case "series":
		return cmdSeries(w, args)
	case "diff":
		return cmdDiff(w, args)
	case "chrome":
		return cmdChrome(w, args)
	case "serve":
		return cmdServe(w, args)
	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// withBundle parses flags (when fs is non-nil), loads the single
// positional bundle argument and applies fn.
func withBundle(cmd string, args []string, fs *flag.FlagSet, fn func(*obs.Bundle) error) error {
	if fs == nil {
		fs = flag.NewFlagSet(cmd, flag.ContinueOnError)
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("%s: want exactly one bundle path, got %d", cmd, fs.NArg())
	}
	b, err := obs.ReadBundleFile(fs.Arg(0))
	if err != nil {
		return err
	}
	return fn(b)
}

func cmdDLT(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("dlt", flag.ContinueOnError)
	minName := fs.String("min", "verbose", "minimum level (verbose..fatal)")
	grep := fs.String("grep", "", "only records whose message matches this regexp")
	app := fs.String("app", "", "only records of this DLT application ID")
	ctx := fs.String("ctx", "", "only records of this DLT context ID")
	asJSON := fs.Bool("json", false, "emit one JSON object per record")
	return withBundle("dlt", args, fs, func(b *obs.Bundle) error {
		minLevel, ok := obs.ParseLevel(*minName)
		if !ok {
			return fmt.Errorf("dlt: unknown level %q", *minName)
		}
		var re *regexp.Regexp
		if *grep != "" {
			var err error
			if re, err = regexp.Compile(*grep); err != nil {
				return err
			}
		}
		shown := 0
		for _, rec := range b.Flight.DLT {
			if rec.Level < minLevel ||
				(*app != "" && rec.App != *app) ||
				(*ctx != "" && rec.Ctx != *ctx) ||
				(re != nil && !re.MatchString(rec.Msg)) {
				continue
			}
			shown++
			if *asJSON {
				repeat := ""
				if rec.Repeat > 1 {
					repeat = fmt.Sprintf(`,"repeat":%d`, rec.Repeat)
				}
				fmt.Fprintf(w, `{"at_ns":%d,"level":%q,"app":%q,"ctx":%q,"msg":%q%s}`+"\n",
					rec.At, rec.Level.String(), rec.App, rec.Ctx, rec.Msg, repeat)
			} else {
				msg := rec.Msg
				if rec.Repeat > 1 {
					msg = fmt.Sprintf("%s ×%d", msg, rec.Repeat)
				}
				fmt.Fprintf(w, "%12.6fs %-7s %-4s %-4s %s\n",
					float64(rec.At)/1e9, rec.Level, rec.App, rec.Ctx, msg)
			}
		}
		if !*asJSON {
			fmt.Fprintf(w, "-- %d/%d records shown (%d total emitted, ring cap kept %d)\n",
				shown, len(b.Flight.DLT), b.Flight.DLTTotal, len(b.Flight.DLT))
		}
		return nil
	})
}

func cmdSpans(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("spans", flag.ContinueOnError)
	kind := fs.String("kind", "", "only this span kind/lane")
	return withBundle("spans", args, fs, func(b *obs.Bundle) error {
		lanes := map[string][]obs.SpanEvent{}
		var order []string
		for _, sp := range b.Flight.Spans {
			lane, _ := sp.Lane()
			if *kind != "" && lane != *kind {
				continue
			}
			if _, seen := lanes[lane]; !seen {
				order = append(order, lane)
			}
			lanes[lane] = append(lanes[lane], sp)
		}
		sort.Strings(order)
		for _, lane := range order {
			fmt.Fprintf(w, "%s (%d events)\n", lane, len(lanes[lane]))
			for _, sp := range lanes[lane] {
				state := ""
				if sp.Open {
					state = " [open]"
				}
				if sp.Count > 1 {
					state += fmt.Sprintf(" ×%d", sp.Count)
				}
				if _, interval := sp.Lane(); interval {
					fmt.Fprintf(w, "  %12.6fs +%8.3fms %s%s %s\n", float64(sp.Start)/1e9,
						float64(sp.End-sp.Start)/1e6, sp.Name, state, sp.Detail)
				} else {
					fmt.Fprintf(w, "  %12.6fs %s%s %s\n", float64(sp.Start)/1e9, sp.Name, state, sp.Detail)
				}
			}
		}
		fmt.Fprintf(w, "-- %d span events retained of %d recorded\n",
			len(b.Flight.Spans), b.Flight.SpanTotal)
		return nil
	})
}

func cmdMetrics(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ContinueOnError)
	grep := fs.String("grep", "", "only series whose name matches this regexp")
	asJSON := fs.Bool("json", false, "emit the snapshot as JSON")
	return withBundle("metrics", args, fs, func(b *obs.Bundle) error {
		samples := b.Metrics
		if *grep != "" {
			re, err := regexp.Compile(*grep)
			if err != nil {
				return err
			}
			var kept []obs.Sample
			for _, s := range samples {
				if re.MatchString(s.Name) {
					kept = append(kept, s)
				}
			}
			samples = kept
		}
		if *asJSON {
			return obs.WriteJSON(w, samples)
		}
		return obs.WritePrometheus(w, samples)
	})
}

func cmdSeries(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("series", flag.ContinueOnError)
	grep := fs.String("grep", "", "only series whose name matches this regexp")
	return withBundle("series", args, fs, func(b *obs.Bundle) error {
		var re *regexp.Regexp
		if *grep != "" {
			var err error
			if re, err = regexp.Compile(*grep); err != nil {
				return err
			}
		}
		for _, s := range b.Series {
			if re != nil && !re.MatchString(s.Name) {
				continue
			}
			fmt.Fprintf(w, "%s (%s, %d points)\n", s.Key(), s.Kind, len(s.Points))
			for _, pt := range s.Points {
				fmt.Fprintf(w, "  %12.6fs %g\n", float64(pt.At)/1e9, pt.Value)
			}
		}
		return nil
	})
}

func cmdDiff(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("diff: want exactly two bundle paths, got %d", fs.NArg())
	}
	before, err := obs.ReadBundleFile(fs.Arg(0))
	if err != nil {
		return err
	}
	after, err := obs.ReadBundleFile(fs.Arg(1))
	if err != nil {
		return err
	}
	diffs := obs.DiffSamples(before.Metrics, after.Metrics)
	if len(diffs) == 0 {
		fmt.Fprintln(w, "no metric changed between the bundles")
		return nil
	}
	dt := float64(after.At-before.At) / 1e9
	fmt.Fprintf(w, "%d series changed over %.6fs of virtual time:\n", len(diffs), dt)
	for _, d := range diffs {
		fmt.Fprintf(w, "  %-50s %14g -> %-14g (%+g)\n",
			d.Name+labelText(d.Labels), d.Before, d.After, d.Delta)
	}
	return nil
}

func labelText(labels []obs.Label) string {
	if len(labels) == 0 {
		return ""
	}
	out := "{"
	for i, l := range labels {
		if i > 0 {
			out += ","
		}
		out += l.Key + "=" + l.Value
	}
	return out + "}"
}

func cmdChrome(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("chrome", flag.ContinueOnError)
	out := fs.String("o", "", "output file (default stdout)")
	return withBundle("chrome", args, fs, func(b *obs.Bundle) error {
		if *out == "" {
			return obs.WriteChromeTrace(w, b.ChromeEvents())
		}
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := obs.WriteChromeTrace(f, b.ChromeEvents()); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
}

func cmdServe(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":9077", "listen address")
	every := fs.Duration("every", 100*time.Millisecond, "wall-clock pace of the DLT replay")
	loop := fs.Bool("loop", false, "restart the DLT replay when it runs out")
	return withBundle("serve", args, fs, func(b *obs.Bundle) error {
		h, replay := newServeHandler(b)
		//autovet:allow baregoroutine offline tool: replays the bundle's DLT in wall time for live tails
		go replay(*every, *loop)
		fmt.Fprintf(w, "autodiag: serving bundle %q (%s) on %s\n", b.Reason, b.ConfigHash, *addr)
		return http.ListenAndServe(*addr, h)
	})
}

// newServeHandler exposes a loaded bundle with the platform's live
// observability surface: the bundle's metric snapshot on /metrics and
// /metrics.json, its DLT on /dlt (with ?follow=1 fed by the returned
// replay pump), the raw bundle on /bundle and the summary on /summary.
func newServeHandler(b *obs.Bundle) (http.Handler, func(every time.Duration, loop bool)) {
	// The replay log mirrors the bundle's ring: same capacity, fed
	// record by record so followers watch the black box play back.
	capacity := len(b.Flight.DLT)
	if capacity == 0 {
		capacity = 1
	}
	replayLog := obs.NewBoundedLog(obs.LevelVerbose, capacity)
	inner := obs.NewServeHandler(obs.ServeOptions{
		DLT:    replayLog,
		Bundle: func(string) *obs.Bundle { return b },
	})
	mux := http.NewServeMux()
	mux.Handle("/dlt", inner)
	mux.Handle("/bundle", inner)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.WritePrometheus(w, b.Metrics)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WriteJSON(w, b.Metrics)
	})
	mux.HandleFunc("/summary", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = b.WriteSummary(w)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "autodiag bundle %q\n/metrics /metrics.json /dlt /dlt?follow=1 /bundle /summary\n", b.Reason)
	})
	replay := func(every time.Duration, loop bool) {
		for {
			for _, rec := range b.Flight.DLT {
				replayLog.Emit(rec.At, rec.Level, rec.App, rec.Ctx, rec.Msg)
				time.Sleep(every)
			}
			if !loop {
				return
			}
		}
	}
	return mux, replay
}
