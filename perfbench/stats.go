package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// derive mixes a seed with labels into an independent sub-seed
// (splitmix64 finalizer per step), so every pass, cell and job draws
// its own input stream from the one benchmark seed.
func derive(seed uint64, labels ...uint64) uint64 {
	x := seed
	for _, l := range labels {
		x += 0x9e3779b97f4a7c15 + l
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

// timeSetup runs the workload's set-up repeatedly and returns the
// median time of one set-up in seconds. Each set-up returns an undo
// function (or nil) that releases what it built; every set-up but the
// last is undone outside the timed interval, and the last one's state is
// what the caller keeps. A first call finishes lazy initialisation and
// sizes the batch: set-ups shorter than setupBatch are summed in
// batches, so nanosecond jitter averages out. It takes at least
// setupReps batches and, up to setupMaxReps, at least setupMin.
func timeSetup(setup func() (undo func(), err error)) (float64, error) {
	var undo func()
	once := func() (time.Duration, error) {
		if undo != nil {
			undo()
		}
		t0 := time.Now()
		u, err := setup()
		d := time.Since(t0)
		undo = u
		return d, err
	}
	first, err := once()
	if err != nil {
		return 0, err
	}
	batch := max(1, int(setupBatch/max(first, time.Nanosecond)))
	var per []float64
	var total time.Duration
	for len(per) < setupReps || (total < setupMin && len(per) < setupMaxReps) {
		var d time.Duration
		for i := 0; i < batch; i++ {
			di, err := once()
			if err != nil {
				return 0, err
			}
			d += di
		}
		per = append(per, d.Seconds()/float64(batch))
		total += d
	}
	return median(per), nil
}

// peakRSSMB reports the process's peak resident set in MB (VmHWM), or
// the Go runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(raw))
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// digest accumulates simulated outputs into one SHA-256, so two commits
// can be compared exactly on the same seed.
type digest struct{ h []byte }

func (d *digest) add(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		// Results are plain data; a marshal failure is a bug here.
		panic(err)
	}
	sum := sha256.Sum256(append(d.h, b...))
	d.h = sum[:]
}

func (d *digest) addBytes(b []byte) {
	sum := sha256.Sum256(append(d.h, b...))
	d.h = sum[:]
}

func (d *digest) String() string { return hex.EncodeToString(d.h) }
