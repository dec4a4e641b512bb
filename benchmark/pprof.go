package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// cpuLayers are the layers a CPU sample can be charged to. A sample goes to
// the innermost frame on its stack that belongs to one of the listed
// stringloops/internal modules, so helpers such as cstr or engine count for
// the layer that called them. Samples under the garbage collector's
// background mark worker go to "gc", and the rest to "other".
var cpuLayers = []string{"vocab", "strsolver", "cir", "cegis", "symex", "qcache", "sat", "service", "bv", "gc", "other"}

const internalPrefix = "stringloops/internal/"

// cpuShares decodes a CPU profile as runtime/pprof writes it (gzipped
// profile.proto) and returns each layer's share of the sampled CPU time, in
// percent. The shares of all layers sum to 100 when any sample was taken.
// The decoder reads only the fields it needs, so the benchmark needs no
// module outside the repository.
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	charged := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		// The last value of a CPU profile sample is its CPU time in ns.
		v := s.values[len(s.values)-1]
		charged[p.layerOf(s.locations)] += v
		total += v
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = 100 * float64(charged[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares, nil
}

// layerOf names the layer a stack (leaf first) is charged to.
func (p *profile) layerOf(stack []uint64) string {
	var names []string
	for _, id := range stack {
		for _, fn := range p.locations[id] {
			names = append(names, p.strings[p.functions[fn]])
		}
	}
	for _, name := range names {
		if strings.HasPrefix(name, "runtime.gcBgMarkWorker") {
			return "gc"
		}
	}
	for _, name := range names {
		rest, ok := strings.CutPrefix(name, internalPrefix)
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		if slices.Contains(cpuLayers, rest) {
			return rest
		}
	}
	return "other"
}

// profile holds the parts of profile.proto the attribution reads.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost inlined first
	functions map[uint64]int64    // function id -> name index into strings
	strings   []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

// profile.proto field numbers and protobuf wire types.
const (
	fieldProfileSample    = 2
	fieldProfileLocation  = 4
	fieldProfileFunction  = 5
	fieldProfileStrings   = 6
	fieldSampleLocationID = 1
	fieldSampleValue      = 2
	fieldLocationID       = 1
	fieldLocationLine     = 4
	fieldLineFunctionID   = 1
	fieldFunctionID       = 1
	fieldFunctionName     = 2

	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

var (
	errTruncated = errors.New("protobuf: truncated message")
	errWireType  = errors.New("protobuf: unsupported wire type")
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case fieldProfileSample:
			var s sample
			err := eachField(data, func(num int, wire int, v uint64, data []byte) error {
				switch num {
				case fieldSampleLocationID:
					s.locations = appendVarints(s.locations, wire, v, data)
				case fieldSampleValue:
					for _, u := range appendVarints(nil, wire, v, data) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fieldProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, wire int, v uint64, data []byte) error {
				switch num {
				case fieldLocationID:
					id = v
				case fieldLocationLine:
					return eachField(data, func(num int, wire int, v uint64, _ []byte) error {
						if num == fieldLineFunctionID {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fieldProfileFunction:
			var id uint64
			var name int64
			err := eachField(data, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
				case fieldFunctionID:
					id = v
				case fieldFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fieldProfileStrings:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// appendVarints appends a repeated scalar field, which the encoder may write
// packed (one length-delimited run of varints) or one value per field.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire != wireBytes {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := varint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}

// eachField walks the fields of one protobuf message, passing varint values
// in v and length-delimited payloads in data.
func eachField(b []byte, fn func(num int, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case wireVarint:
			v, n = varint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case wireFixed64:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case wireFixed32:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		case wireBytes:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return errWireType
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varint decodes one base-128 varint, returning the value and the bytes
// read (0 when b ends inside the varint).
func varint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
