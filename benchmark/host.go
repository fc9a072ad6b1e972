package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", fields[1], err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// streamGBps measures the host's sustainable memory bandwidth with a
// STREAM triad a[i] = b[i] + q·c[i] over three 32 MiB arrays (far past any
// cache here), counting the three compulsory streams per pass, and
// returns the fastest of five passes. It is the roofline the computed
// bytes/s of the bandwidth-bound kernels are read against.
func streamGBps(elems int) float64 {
	a := make([]float64, elems)
	b := make([]float64, elems)
	c := make([]float64, elems)
	for i := range b {
		b[i] = float64(i)
		c[i] = 0.5
	}
	best := time.Duration(0)
	for pass := 0; pass < 5; pass++ {
		t0 := time.Now()
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
		if d := time.Since(t0); best == 0 || d < best {
			best = d
		}
	}
	if a[elems/2] == 0 || best == 0 { // keeps the triad observable
		return 0
	}
	return float64(3*8*elems) / best.Seconds() / 1e9
}
