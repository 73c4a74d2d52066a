// Package worldio serializes worlds and workloads to JSON for the CLI
// tools. Worlds are stored as generator specs (kind + options + seed), so
// files stay small and rebuilds are exact; workload events are stored
// verbatim so downstream consumers do not need the mobility generator.
package worldio

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/mobility"
	"repro/internal/planar"
	"repro/internal/roadnet"
)

// CitySpec describes how to rebuild a synthetic city.
type CitySpec struct {
	// Kind is "grid", "radial" or "random".
	Kind string `json:"kind"`
	Seed int64  `json:"seed"`
	// Exactly one of the option structs is consulted, per Kind.
	Grid   *roadnet.GridOpts   `json:"grid,omitempty"`
	Radial *roadnet.RadialOpts `json:"radial,omitempty"`
	Random *roadnet.RandomOpts `json:"random,omitempty"`
}

// Build constructs the world the spec describes.
func (c CitySpec) Build() (*roadnet.World, error) {
	rng := rand.New(rand.NewSource(c.Seed))
	switch c.Kind {
	case "grid":
		if c.Grid == nil {
			return nil, fmt.Errorf("worldio: grid spec missing options")
		}
		return roadnet.GridCity(*c.Grid, rng)
	case "radial":
		if c.Radial == nil {
			return nil, fmt.Errorf("worldio: radial spec missing options")
		}
		return roadnet.RadialCity(*c.Radial, rng)
	case "random":
		if c.Random == nil {
			return nil, fmt.Errorf("worldio: random spec missing options")
		}
		return roadnet.RandomCity(*c.Random, rng)
	}
	return nil, fmt.Errorf("worldio: unknown city kind %q", c.Kind)
}

// EventRec is the JSON shape of one crossing event.
type EventRec struct {
	Obj  int     `json:"obj"`
	T    float64 `json:"t"`
	Kind string  `json:"kind"` // "enter" | "move" | "leave"
	Road int     `json:"road,omitempty"`
	From int     `json:"from,omitempty"`
	At   int     `json:"at"`
}

// FormatVersion is the bundle format version Save writes and the only
// one Load reads.
const FormatVersion = 1

// File is the serialized bundle.
type File struct {
	// Version is the bundle format version (FormatVersion).
	Version int        `json:"version"`
	City    CitySpec   `json:"city"`
	Horizon float64    `json:"horizon"`
	Objects int        `json:"objects"`
	Events  []EventRec `json:"events"`
}

// Save writes a world spec and workload to w as JSON.
func Save(w io.Writer, spec CitySpec, wl *mobility.Workload) error {
	f := File{Version: FormatVersion, City: spec, Horizon: wl.Horizon, Objects: wl.Objects}
	f.Events = make([]EventRec, len(wl.Events))
	for i, ev := range wl.Events {
		rec := EventRec{Obj: ev.Obj, T: ev.T, At: int(ev.At)}
		switch ev.Kind {
		case mobility.Enter:
			rec.Kind = "enter"
		case mobility.Move:
			rec.Kind = "move"
			rec.Road = int(ev.Road)
			rec.From = int(ev.From)
		case mobility.Leave:
			rec.Kind = "leave"
		default:
			return fmt.Errorf("worldio: unknown event kind %d", ev.Kind)
		}
		f.Events[i] = rec
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&f)
}

// Load reads a bundle and rebuilds the world and workload. Truncated
// input, version-less input and any format version other than
// FormatVersion are all rejected with a descriptive error before any
// partial decode escapes.
func Load(r io.Reader) (*roadnet.World, *mobility.Workload, error) {
	var f File
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, nil, fmt.Errorf("worldio: truncated bundle: input ended mid-document")
		}
		return nil, nil, fmt.Errorf("worldio: decoding: %w", err)
	}
	switch {
	case f.Version == 0:
		return nil, nil, fmt.Errorf("worldio: input has no format version (this build reads version %d): not a worldio bundle, or one written before bundles were versioned", FormatVersion)
	case f.Version > FormatVersion:
		return nil, nil, fmt.Errorf("worldio: bundle format version %d is newer than this build supports (%d)", f.Version, FormatVersion)
	case f.Version != FormatVersion:
		return nil, nil, fmt.Errorf("worldio: unsupported bundle format version %d (this build reads version %d)", f.Version, FormatVersion)
	}
	world, err := f.City.Build()
	if err != nil {
		return nil, nil, err
	}
	wl := &mobility.Workload{W: world, Horizon: f.Horizon, Objects: f.Objects}
	wl.Events = make([]mobility.Event, len(f.Events))
	for i, rec := range f.Events {
		ev := mobility.Event{Obj: rec.Obj, T: rec.T, At: planar.NodeID(rec.At)}
		switch rec.Kind {
		case "enter":
			ev.Kind = mobility.Enter
		case "move":
			ev.Kind = mobility.Move
			ev.Road = planar.EdgeID(rec.Road)
			ev.From = planar.NodeID(rec.From)
		case "leave":
			ev.Kind = mobility.Leave
		default:
			return nil, nil, fmt.Errorf("worldio: event %d has unknown kind %q", i, rec.Kind)
		}
		wl.Events[i] = ev
	}
	return world, wl, nil
}
