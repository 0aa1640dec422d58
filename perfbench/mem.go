package main

import (
	"bytes"
	"errors"
	"os"
	"time"
)

// peakRSS returns a process's VmHWM in MiB ("self" for this process).
func peakRSS(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	kb, ok := statusKB(b, []byte("VmHWM:"))
	if !ok {
		return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
	}
	return kb / 1024, nil
}

// statusKB parses the "<field> <n> kB" line of a /proc status file.
func statusKB(status, field []byte) (float64, bool) {
	i := bytes.Index(status, field)
	if i < 0 {
		return 0, false
	}
	line := status[i+len(field):]
	if j := bytes.IndexByte(line, '\n'); j >= 0 {
		line = line[:j]
	}
	kb := 0.0
	digits := false
	for _, c := range line {
		if c >= '0' && c <= '9' {
			kb = kb*10 + float64(c-'0')
			digits = true
		}
	}
	return kb, digits
}

// rssSampler samples a process's VmRSS every rssEvery until stopped, into
// preallocated memory, so it adds no garbage to the window.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

const rssEvery = 20 * time.Millisecond

// sampleRSS starts sampling process pid ("self" for this one) for a window
// of length d.
func sampleRSS(pid string, d time.Duration) (*rssSampler, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return nil, err
	}
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{}),
		samples: make([]float64, 0, int(d/rssEvery)+64)}
	buf := make([]byte, 8192)
	field := []byte("VmRSS:")
	go func() {
		defer close(s.done)
		defer f.Close()
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			n, _ := f.ReadAt(buf, 0)
			if kb, ok := statusKB(buf[:n], field); ok && len(s.samples) < cap(s.samples) {
				s.samples = append(s.samples, kb/1024)
			}
		}
	}()
	return s, nil
}

// median stops the sampler and returns the median sample in MiB.
func (s *rssSampler) median() (float64, error) {
	close(s.stop)
	<-s.done
	if len(s.samples) == 0 {
		return 0, errors.New("no VmRSS samples")
	}
	return median(s.samples), nil
}
