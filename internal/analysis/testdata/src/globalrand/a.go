// Package globalrand is golden input for the globalrand analyzer.
package globalrand

import "math/rand"

var shared = rand.New(rand.NewSource(1)) // want `package-level RNG`

var seedOnly int64 = 7 // ok: plain integer, not RNG state

// globals draws from the process-global source.
func globals(n int) int {
	rand.Shuffle(n, func(i, j int) {}) // want `global math/rand source`
	return rand.Intn(n)                // want `global math/rand source`
}

// captured leaks one RNG stream into two goroutines.
func captured(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	go func() {
		_ = rng.Intn(2) // want `captured by a go func literal`
	}()
	go consume(rng) // want `passed across a goroutine boundary`
	_ = rng.Intn(2)
}

// goodWorker creates the stream inside the goroutine: each worker owns
// its RNG, the sanctioned pattern.
func goodWorker(seed int64, workers int) {
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			rng := rand.New(rand.NewSource(seed + int64(w)))
			_ = rng.Intn(2)
		}()
	}
}

// goodLocal uses a seeded local stream on one goroutine.
func goodLocal(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

func consume(r *rand.Rand) int64 { return r.Int63() }

// stream is a named wrapper around a source: the same RNG state as the
// source inside it.
type stream struct {
	src rand.Source64
}

func (s stream) next() uint64 { return s.src.Uint64() }

var sharedStream stream // want `package-level RNG`

// job points at RNG-bearing state one level down; it is not itself a
// stream.
type job struct {
	s    *stream
	seed int64
}

var template job // ok: not RNG state itself

// capturedStream leaks one wrapped stream into two goroutines.
func capturedStream(seed int64) {
	s := stream{src: rand.NewSource(seed).(rand.Source64)}
	go func() {
		_ = s.next() // want `captured by a go func literal`
	}()
	go drain(s) // want `passed across a goroutine boundary`
	_ = s.next()
}

// fieldOnly hands a goroutine a job whose stream field it reads: the
// field selection is not a capture of its own.
func fieldOnly(j job) {
	done := make(chan struct{})
	go func(j job) {
		_ = j.s.next()
		close(done)
	}(j)
	<-done
}

func drain(s stream) uint64 { return s.next() }
