package iotsan_test

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"iotsan"
)

// apiOnly lists the Options fields deliberately without an engine flag:
// per-experiment inputs the CLIs set themselves (or not at all) and the
// test-oracle switches. A new Options field must be either bound in
// RegisterFlags or added here — the decision cannot be skipped.
var apiOnly = map[string]bool{
	"MaxEvents": true, "Design": true, "NoDepGraph": true, "MaxViolations": true,
	"MaxStatesPerSet": true, "Deadline": true, "Interpreter": true,
	"NoIncremental": true, "NoEpochReclaim": true,
}

// deprecated lists the Options fields kept only until their last reader,
// the benchmark's hand copy of Analyze, is gone: no flag binds them, and
// Analyze refuses each one set (TestDeprecatedOptionsRefused), so none
// can quietly come back into use.
var deprecated = map[string]bool{
	"Properties": true, "Thresholds": true, "Bitstate": true, "GroupParallel": true,
}

// engineFlagSet registers the engine flags of a zero Options on a
// quiet flag set.
func engineFlagSet() (*iotsan.Options, *flag.FlagSet) {
	opts := new(iotsan.Options)
	fs := flag.NewFlagSet("engine", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	opts.RegisterFlags(fs)
	return opts, fs
}

func TestRegisterFlagsCoversOptions(t *testing.T) {
	got, fs := engineFlagSet()
	if !reflect.DeepEqual(*got, iotsan.Options{MaxFaults: 1}) {
		t.Errorf("flag defaults = %+v, want the zero Options with MaxFaults 1", *got)
	}

	// Every registered flag, each at a non-default value.
	args := []string{
		"-strategy", "steal", "-workers", "3", "-por", "-symmetry",
		"-failures", "-faults", "-max-faults", "2",
		"-store", "tiered", "-store-dir", "/tmp/s", "-mem-budget", "65536",
		"-checkpoint", "-resume",
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	want := iotsan.Options{
		Strategy: iotsan.StrategySteal, Workers: 3, POR: true, Symmetry: true,
		Failures: true, Faults: true, MaxFaults: 2,
		Store: iotsan.StoreTiered, StoreDir: "/tmp/s", MemBudget: 65536,
		Checkpoint: true, Resume: true,
	}
	if !reflect.DeepEqual(*got, want) {
		t.Errorf("parsed options:\n got %+v\nwant %+v", *got, want)
	}
	set := 0
	fs.Visit(func(*flag.Flag) { set++ })
	all := 0
	fs.VisitAll(func(*flag.Flag) { all++ })
	if set != all {
		t.Errorf("command line sets %d of %d registered flags; extend args and want", set, all)
	}

	// The parse above left every flag-bound field non-zero, so a zero
	// field is unbound and must be a declared API-only field.
	v := reflect.ValueOf(*got)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if apiOnly[name] && deprecated[name] {
			t.Errorf("Options.%s is listed both API-only and deprecated", name)
		}
		if bound, unbound := !v.Field(i).IsZero(), apiOnly[name] || deprecated[name]; bound == unbound {
			t.Errorf("Options.%s: flag-bound=%v, API-only or deprecated=%v — bind it in RegisterFlags or list it in apiOnly", name, bound, unbound)
		}
	}

	for _, bad := range [][]string{{"-strategy", "bfs"}, {"-store", "ooc"}, {"-incremental=false"}, {"-epoch-reclaim=false"}, {"-group-parallel"}} {
		if _, fs := engineFlagSet(); fs.Parse(bad) == nil {
			t.Errorf("%v parsed; want an error", bad)
		}
	}

	// The deleted level-synchronous strategy's name fails like any
	// unknown one, and the error names what is left.
	_, fs = engineFlagSet()
	if err := fs.Parse([]string{"-strategy", "parallel"}); err == nil ||
		!strings.Contains(err.Error(), "dfs") || !strings.Contains(err.Error(), "steal") {
		t.Errorf("-strategy parallel: error = %v, want a rejection naming dfs and steal", err)
	}
}

// TestDeprecatedOptionsRefused: Analyze and AnalyzeTranslated refuse
// every deprecated field set to a non-zero value, before translating
// anything, with an error naming the field.
func TestDeprecatedOptionsRefused(t *testing.T) {
	sys := &iotsan.System{
		Devices: []iotsan.Device{{ID: "d", Model: "Smart Switch"}},
		Apps:    []iotsan.AppInstance{{App: "Nope"}},
	}
	bad := map[string]string{"Nope": "not groovy ("}
	typ := reflect.TypeOf(iotsan.Options{})
	for name := range deprecated {
		f, ok := typ.FieldByName(name)
		if !ok {
			t.Errorf("deprecated lists %s, which Options does not have", name)
			continue
		}
		var opts iotsan.Options
		v := reflect.ValueOf(&opts).Elem().FieldByIndex(f.Index)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0)) // non-nil, even empty
		case reflect.Struct:
			v.Field(0).SetInt(1)
		default:
			t.Fatalf("Options.%s: no non-zero value for kind %s", name, v.Kind())
		}
		want := "Options." + name + " is deprecated"
		if _, err := iotsan.Analyze(sys, bad, opts); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s set: Analyze error = %v, want %q", name, err, want)
		}
		if _, err := iotsan.AnalyzeTranslated(sys, nil, opts); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s set: AnalyzeTranslated error = %v, want %q", name, err, want)
		}
	}
}
