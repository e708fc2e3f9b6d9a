// Package driver runs graphspar's analyzers under the standard vet
// harness: when invoked by `go vet -vettool=graphsparlint`, the go
// command hands the tool a *.cfg JSON file per package; the driver
// speaks that protocol (including the -V=full and -flags probes), so
// package loading, caching and _test packages all come from `go vet`.
//
// The driver is stdlib-only; see package analysis for why the canonical
// x/tools framework is not used.
package driver

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"graphspar/internal/analysis"
)

// Main is the entry point of cmd/graphsparlint. It never returns.
func Main(analyzers ...*analysis.Analyzer) {
	log.SetFlags(0)
	log.SetPrefix("graphsparlint: ")

	fs := flag.NewFlagSet("graphsparlint", flag.ExitOnError)
	fs.Var(versionFlag{}, "V", "print version and exit (-V=full, for the go command)")
	printFlags := fs.Bool("flags", false, "print analyzer flags in JSON (for the go command)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: go vet -vettool=$(which graphsparlint) ./...\n\nanalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, firstLine(a.Doc))
		}
	}
	fs.Parse(os.Args[1:])

	if *printFlags {
		emitFlagDefs(fs)
		os.Exit(0)
	}
	if args := fs.Args(); len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		runUnitchecker(args[0], analyzers) // exits
	}
	fs.Usage()
	os.Exit(2)
}

// emitFlagDefs prints the tool's flags as the JSON array the go
// command's `-flags` probe expects.
func emitFlagDefs(fs *flag.FlagSet) {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var defs []jsonFlag
	fs.VisitAll(func(f *flag.Flag) {
		isBool := false
		if b, ok := f.Value.(interface{ IsBoolFlag() bool }); ok {
			isBool = b.IsBoolFlag()
		}
		defs = append(defs, jsonFlag{Name: f.Name, Bool: isBool, Usage: f.Usage})
	})
	data, _ := json.Marshal(defs)
	os.Stdout.Write(data)
}

// versionFlag implements -V=full: the go command fingerprints vet tools
// by self-hash so its action cache invalidates when the tool changes.
type versionFlag struct{}

func (versionFlag) IsBoolFlag() bool { return true }
func (versionFlag) String() string   { return "" }

func (versionFlag) Set(s string) error {
	if s != "full" {
		return fmt.Errorf("unsupported flag value: -V=%s", s)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return err
	}
	fmt.Printf("%s version devel graphsparlint buildID=%02x\n",
		filepath.Base(os.Args[0]), string(h.Sum(nil)[:24]))
	os.Exit(0)
	return nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
