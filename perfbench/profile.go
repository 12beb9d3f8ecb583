package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// profileFold is a CPU profile folded by layer. Each sample is charged to
// the innermost frame that belongs to this module, so runtime helpers
// (allocation, memmove) count for the layer that called them; samples
// with no module frame (GC workers, the scheduler) count as runtime.
type profileFold struct {
	total          int64
	byLayer        map[string]int64
	tcpRecvSeconds float64 // sampled seconds with a TCP receive handler on the stack
}

// share is the layer's share of the samples the program itself took.
// Samples charged to this benchmark (its probes and bookkeeping) are left
// out, so traced shares describe the program as an untraced run executes
// it; benchShare reports what they left out.
func (f *profileFold) share(layer string) float64 {
	prog := f.total - f.byLayer["bench"]
	if prog <= 0 {
		return 0
	}
	return float64(f.byLayer[layer]) / float64(prog)
}

// benchShare is the share of all samples charged to this benchmark.
func (f *profileFold) benchShare() float64 {
	if f.total == 0 {
		return 0
	}
	return float64(f.byLayer["bench"]) / float64(f.total)
}

func (f *profileFold) layers() []string {
	var ls []string
	for l := range f.byLayer {
		if l != "bench" {
			ls = append(ls, l)
		}
	}
	sort.Strings(ls)
	return ls
}

// tcpRecvFrames are the functions that handle packets delivered to TCP
// endpoints.
var tcpRecvFrames = []string{"repro/internal/tcpsim.(*Sender).recv", "repro/internal/tcpsim.(*Sink).recv"}

// foldProfile decodes a gzipped pprof CPU profile, as runtime/pprof
// writes it, and folds it by layer.
func foldProfile(r io.Reader) (*profileFold, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	f := &profileFold{byLayer: map[string]int64{}}
	for _, s := range p.samples {
		layer, tcp := "runtime", false
		for _, loc := range s.locs {
			for _, fn := range p.locations[loc] {
				name := p.strings[p.functions[fn]]
				if layer == "runtime" {
					if l, ok := layerOf(packageOf(name)); ok {
						layer = l
					}
				}
				for _, t := range tcpRecvFrames {
					tcp = tcp || strings.HasPrefix(name, t)
				}
			}
		}
		f.byLayer[layer] += s.count
		f.total += s.count
		if tcp {
			f.tcpRecvSeconds += float64(s.count) * float64(p.period) / 1e9
		}
	}
	return f, nil
}

// packageOf returns the package path of a symbol such as
// "repro/internal/sim.(*Scheduler).siftDown".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// profile holds the parts of a pprof profile the fold needs.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
	period    int64 // nanoseconds per sample
}

type profSample struct {
	locs  []uint64 // innermost first
	count int64
}

// Field numbers of the pprof profile.proto messages used here.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6
	fProfilePeriod   = 12
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case fProfileSample:
			var s profSample
			first := true
			err := eachField(msg, func(num int, v uint64, packed []byte) error {
				switch num {
				case fSampleLocation:
					s.locs = appendVarints(s.locs, v, packed)
				case fSampleValue:
					if first { // samples/count is the first value
						vals := appendVarints(nil, v, packed)
						if len(vals) > 0 {
							s.count, first = int64(vals[0]), false
						}
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(num int, v uint64, line []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(line, func(num int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fProfileStrings:
			p.strings = append(p.strings, string(msg))
		case fProfilePeriod:
			p.period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decode cpu profile: %w", err)
	}
	for _, name := range p.functions {
		if name < 0 || int(name) >= len(p.strings) {
			return nil, errors.New("decode cpu profile: function name out of range")
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field given either unpacked
// (one value) or packed (a run of varints).
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := varint(packed)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// eachField calls fn for every field of a protobuf message: varint
// fields with their value, length-delimited ones with their bytes.
func eachField(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errors.New("truncated key")
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch typ {
		case 0:
			if v, n = varint(b); n == 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if typ == 5 {
				size = 4
			}
			if len(b) < size {
				return errors.New("truncated fixed field")
			}
			b = b[size:]
			continue
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("truncated field")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
			if msg == nil {
				msg = []byte{}
			}
		default:
			return fmt.Errorf("unsupported wire type %d", typ)
		}
		if err := fn(num, v, msg); err != nil {
			return err
		}
	}
	return nil
}

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
