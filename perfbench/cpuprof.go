package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// cpuLayers are the groups CPU samples are folded into: the repository's
// simulator packages by name (sub-packages join their parent), the Go
// runtime, and everything else.
var cpuLayers = []string{"sim", "core", "chip", "vth", "ftl", "ssd", "workload", "experiments", "runtime", "other"}

const modulePrefix = "readretry/internal/"

// layerOf maps a profiled function name to its group in cpuLayers.
func layerOf(fn string) string {
	// The package path ends at the first '.' after the last '/'.
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if rest, ok := strings.CutPrefix(pkg, modulePrefix); ok {
		top, _, _ := strings.Cut(rest, "/")
		for _, l := range cpuLayers {
			if l == top {
				return l
			}
		}
	}
	return "other"
}

// cpuShares reads a runtime/pprof CPU profile and returns the share of
// samples each group of cpuLayers accounts for (see sampleLayer), with the
// total sample count.
func cpuShares(path string) (map[string]float64, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(data)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	counts := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		counts[p.sampleLayer(s.locs)] += s.values[0]
		total += s.values[0]
	}
	shares := make(map[string]float64)
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		}
	}
	return shares, total, nil
}

// sampleLayer attributes one sample, given its stack leaf first. A sample
// whose leaf frame is in the Go runtime (allocation, GC, scheduling) counts
// as runtime. Otherwise it counts toward the innermost frame in one of the
// named simulator layers, so helper packages (rng, mathx, math, sort, ...)
// count toward the layer that called them; with no such frame it is other.
func (p *profile) sampleLayer(locs []uint64) string {
	leaf := true
	for _, loc := range locs {
		for _, fn := range p.locFuncs[loc] {
			l := layerOf(p.name(fn))
			if leaf && l == "runtime" {
				return l
			}
			leaf = false
			if l != "runtime" && l != "other" {
				return l
			}
		}
	}
	return "other"
}

func (p *profile) name(fn uint64) string {
	if id, ok := p.funcName[fn]; ok && id >= 0 && id < int64(len(p.strs)) {
		return p.strs[id]
	}
	return ""
}

// profile holds the parts of a pprof protobuf the folding needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]int64    // function id → string-table index
	strs     []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// Field numbers of profile.proto (github.com/google/pprof).
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func decodeProfile(data []byte) (*profile, error) {
	p := &profile{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]int64)}
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case profSample:
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case sampleLocationID:
					return appendVarints(&s.locs, wire, v, b)
				case sampleValue:
					var vs []uint64
					if err := appendVarints(&vs, wire, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case profStringTable:
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

// Protobuf wire types used by profile.proto.
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or its bytes.
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := varint(data)
		if n == 0 {
			return errTruncated
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case wireVarint:
			if v, n = varint(data); n == 0 {
				return errTruncated
			}
			data = data[n:]
		case wireI64, wireI32:
			size := 8
			if wire == wireI32 {
				size = 4
			}
			if len(data) < size {
				return errTruncated
			}
			data = data[size:]
		case wireBytes:
			l, n := varint(data)
			if n == 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == wireVarint {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n == 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// varint decodes one base-128 varint, returning its length (0 when
// truncated).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
