package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modulePrefix marks the frames of the simulator's layers: the function
// name of every frame in cachedarrays/internal/<module> starts with it.
const modulePrefix = "cachedarrays/internal/"

// runtimeLayer is charged with samples whose stack holds no module frame:
// the Go runtime's own goroutines (background GC, scheduler) and the
// benchmark's code outside any module.
const runtimeLayer = "runtime"

// attribution is a CPU profile split by layer.
type attribution struct {
	// Seconds maps each layer to the CPU seconds of the samples charged
	// to it: the innermost module frame on the sample's stack, or
	// runtimeLayer. The values sum to Total.
	Seconds map[string]float64
	// Total is the CPU seconds of every sample in the profile.
	Total float64
}

// moduleOf returns the module of a fully qualified function name
// ("cachedarrays/internal/pagemig.(*Migrator).Epoch" → "pagemig"), or ""
// for a function outside every module.
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// attribute charges every sample of a gzip-compressed pprof CPU profile
// to the innermost module frame on its stack. Library and runtime frames
// above that frame (sort.Slice swaps under pagemig, allocation under dm)
// count for the module that called them.
func attribute(gz []byte) (attribution, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return attribution{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return attribution{}, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return attribution{}, fmt.Errorf("profile: %w", err)
	}
	return p.attribute()
}

// profile holds the parts of a pprof profile attribution reads.
type profile struct {
	sampleTypes []valueType
	samples     []sample
	locations   map[uint64][]uint64 // location id → function ids, innermost inlined call first
	functions   map[uint64]int64    // function id → name (string table index)
	strings     []string
}

type valueType struct{ typ, unit int64 }

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

// attribute charges the profile's CPU nanoseconds (the value whose type
// is "cpu") by layer.
func (p *profile) attribute() (attribution, error) {
	col := -1
	for i, vt := range p.sampleTypes {
		if p.str(vt.typ) == "cpu" && p.str(vt.unit) == "nanoseconds" {
			col = i
		}
	}
	if col < 0 {
		return attribution{}, errors.New("profile: no cpu/nanoseconds sample type")
	}
	a := attribution{Seconds: map[string]float64{}}
	for _, s := range p.samples {
		if col >= len(s.values) {
			return attribution{}, errors.New("profile: sample misses the cpu value")
		}
		sec := float64(s.values[col]) / 1e9
		a.Seconds[p.layerOf(s)] += sec
		a.Total += sec
	}
	return a, nil
}

// layerOf returns the innermost module on a sample's stack.
func (p *profile) layerOf(s sample) string {
	for _, loc := range s.locations {
		for _, fn := range p.locations[loc] {
			if m := moduleOf(p.str(p.functions[fn])); m != "" {
				return m
			}
		}
	}
	return runtimeLayer
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto (github.com/google/pprof) that
// attribution reads.
const (
	fieldSampleType  = 1
	fieldSample      = 2
	fieldLocation    = 4
	fieldFunction    = 5
	fieldStringTable = 6

	fieldValueTypeType = 1
	fieldValueTypeUnit = 2

	fieldSampleLocation = 1
	fieldSampleValue    = 2

	fieldLocationID   = 1
	fieldLocationLine = 4
	fieldLineFunction = 1

	fieldFunctionID   = 1
	fieldFunctionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(f field) error {
		switch f.num {
		case fieldSampleType:
			var vt valueType
			err := eachField(f.bytes, func(g field) error {
				switch g.num {
				case fieldValueTypeType:
					vt.typ = int64(g.varint)
				case fieldValueTypeUnit:
					vt.unit = int64(g.varint)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, vt)
			return err
		case fieldSample:
			var s sample
			err := eachField(f.bytes, func(g field) error {
				switch g.num {
				case fieldSampleLocation:
					return g.uints(func(v uint64) { s.locations = append(s.locations, v) })
				case fieldSampleValue:
					return g.uints(func(v uint64) { s.values = append(s.values, int64(v)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fieldLocation:
			var id uint64
			var fns []uint64
			err := eachField(f.bytes, func(g field) error {
				switch g.num {
				case fieldLocationID:
					id = g.varint
				case fieldLocationLine:
					return eachField(g.bytes, func(h field) error {
						if h.num == fieldLineFunction {
							fns = append(fns, h.varint)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fieldFunction:
			var id uint64
			var name int64
			err := eachField(f.bytes, func(g field) error {
				switch g.num {
				case fieldFunctionID:
					id = g.varint
				case fieldFunctionName:
					name = int64(g.varint)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fieldStringTable:
			p.strings = append(p.strings, string(f.bytes))
		}
		return nil
	})
	return p, err
}

// field is one decoded protobuf field: varint holds a wire-type-0 value,
// bytes a length-delimited one.
type field struct {
	num    int
	wire   int
	varint uint64
	bytes  []byte
}

// uints calls fn for each value of a repeated integer field, packed or
// not (the Go runtime packs only runs longer than two).
func (f field) uints(fn func(uint64)) error {
	if f.wire == 0 {
		fn(f.varint)
		return nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

// eachField walks a protobuf message's top-level fields in order.
func eachField(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.varint, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
		case 1:
			n = 8
		case 2:
			l, m := binary.Uvarint(b)
			if m <= 0 || uint64(len(b)-m) < l {
				return errors.New("bad length")
			}
			f.bytes = b[m : m+int(l)]
			n = m + int(l)
		case 5:
			n = 4
		default:
			return fmt.Errorf("unsupported wire type %d", f.wire)
		}
		if n > len(b) {
			return errors.New("truncated field")
		}
		b = b[n:]
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}
