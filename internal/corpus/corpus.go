// Package corpus embeds the smart-app corpus the evaluation runs on:
// market-style SmartThings apps written in the Groovy subset (including
// every app the paper names: Virtual Thermostat, Brighten Dark Places,
// Let There Be Dark, Auto Mode Change, Unlock Door, Big Turn On, Good
// Night, Make It So, Energy Saver, Light Follows Me, Darken Behind Me,
// ...), the ContexIoT-style malicious apps used for attribution (§10.3),
// and the configurations used by the experiments.
//
// The paper's corpus is 150 market apps in six groups of 25 plus 9
// malicious apps; this package carries the same corpus shape. Each app's
// source is one file, apps/<name>.groovy (see FileName); the manifest
// gives each app its group and tags.
package corpus

import (
	"embed"
	"fmt"
	"slices"
	"strings"
	"unsafe"
)

// Tag classifies corpus entries.
type Tag string

// Tags.
const (
	TagMarket    Tag = "market"    // benign market-place app
	TagMalicious Tag = "malicious" // ContexIoT-style attack app
	TagBad       Tag = "bad"       // market app attributed bad in §10.3
	TagGood      Tag = "good"      // market app known violation-free
	TagExtra     Tag = "extra"     // beyond the 150 market apps; for unit tests and examples
	TagFaults    Tag = "faults"    // the fault-injection group
	TagSymmetry  Tag = "symmetry"  // the interchangeable-device group
)

// Source is one corpus app.
type Source struct {
	Name   string
	Groovy string
	Group  int // market group 1..6 (0 for non-market apps)
	Tags   []Tag
}

// HasTag reports whether the source carries the tag.
func (s Source) HasTag(t Tag) bool {
	for _, x := range s.Tags {
		if x == t {
			return true
		}
	}
	return false
}

//go:embed apps/*.groovy
var files embed.FS

// FileName is the name of an app's source file under apps/: the app's
// name without the characters a //go:embed file name may not hold (of
// these only the apostrophe, as in "It's Too Cold", occurs), plus
// ".groovy".
func FileName(app string) string {
	return strings.Map(func(r rune) rune {
		if strings.ContainsRune("\"'*/:;<>?\\`|", r) {
			return -1
		}
		return r
	}, app) + ".groovy"
}

var (
	byName []Source // sorted by name
	index  = map[string]int{}
)

// init reads every manifest entry's source once, into byName and index.
func init() {
	byName = make([]Source, 0, len(manifest))
	for _, e := range manifest {
		b, err := files.ReadFile("apps/" + FileName(e.name))
		if err != nil {
			panic(fmt.Sprintf("corpus: app %q: %v", e.name, err))
		}
		// ReadFile returns a fresh copy nothing else holds, so the
		// string can share it.
		byName = append(byName, Source{Name: e.name, Group: e.group, Tags: e.tags, Groovy: unsafe.String(unsafe.SliceData(b), len(b))})
	}
	slices.SortFunc(byName, func(a, b Source) int { return strings.Compare(a.Name, b.Name) })
	for i, s := range byName {
		if _, dup := index[s.Name]; dup {
			panic(fmt.Sprintf("corpus: duplicate app %q", s.Name))
		}
		index[s.Name] = i
	}
}

// Apps returns every corpus entry, sorted by name.
func Apps() []Source {
	return slices.Clone(byName)
}

// ByName returns the app with the given name.
func ByName(name string) (Source, bool) {
	i, ok := index[name]
	if !ok {
		return Source{}, false
	}
	return byName[i], true
}

// MustSource returns the Groovy source of a named app, panicking when the
// app is unknown (corpus contents are fixed at compile time).
func MustSource(name string) string {
	s, ok := ByName(name)
	if !ok {
		panic("corpus: unknown app " + name)
	}
	return s.Groovy
}

// Group returns the market apps in group g (1..6), sorted by name.
func Group(g int) []Source {
	var out []Source
	for _, s := range byName {
		if s.Group == g && s.HasTag(TagMarket) {
			out = append(out, s)
		}
	}
	return out
}

// WithTag returns all apps carrying the tag, sorted by name.
func WithTag(t Tag) []Source {
	var out []Source
	for _, s := range byName {
		if s.HasTag(t) {
			out = append(out, s)
		}
	}
	return out
}

// FaultGroup returns the fault-injection app group, sorted by name.
func FaultGroup() []Source {
	return WithTag(TagFaults)
}

// SymmetryGroup returns the interchangeable-device app group, sorted by
// name.
func SymmetryGroup() []Source {
	return WithTag(TagSymmetry)
}
