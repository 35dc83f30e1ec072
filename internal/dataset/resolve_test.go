package dataset

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"chaseci/internal/ffn"
)

// stallDecode makes m's decodes block until release is closed, signalling
// entered as each one starts.
func stallDecode(m *Manager) (entered chan struct{}, release chan struct{}) {
	entered, release = make(chan struct{}, 1), make(chan struct{}) // each test stalls one decode
	m.decode = func(enc []byte) (*Blob, error) {
		entered <- struct{}{}
		<-release
		return Decode(enc)
	}
	return entered, release
}

// TestResolveMissDoesNotBlockManager stalls one miss's decode and requires
// hits, puts and visibility checks to complete meanwhile.
func TestResolveMissDoesNotBlockManager(t *testing.T) {
	m := NewLocal()
	hot, err := m.PutVolume(2, 3, 4, testVolume(2, 3, 4, 1), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Resolve(hot.ID); err != nil {
		t.Fatal(err)
	}
	cold, err := m.PutVolume(2, 3, 4, testVolume(2, 3, 4, 2), "")
	if err != nil {
		t.Fatal(err)
	}
	entered, release := stallDecode(m)
	missDone := make(chan error, 1)
	go func() {
		_, err := m.Resolve(cold.ID)
		missDone <- err
	}()
	<-entered

	others := make(chan error, 1)
	go func() {
		if _, err := m.Resolve(hot.ID); err != nil {
			others <- err
			return
		}
		if !m.VisibleTo(hot.ID, "anyone") {
			others <- errors.New("hot dataset not visible")
			return
		}
		_, err := m.PutVolume(1, 1, 2, []float32{1, 2}, "")
		others <- err
	}()
	select {
	case err := <-others:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hit, VisibleTo and Put blocked behind a decoding miss")
	}
	close(release)
	if err := <-missDone; err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	_, _, cached := m.cachedLocked(cold.ID)
	m.mu.Unlock()
	if !cached {
		t.Fatal("completed miss was not cached")
	}
}

// TestResolveMissRacingDelete deletes a dataset while its miss is decoding:
// the miss still returns the bytes it read, but must not resurrect the
// deleted id in the cache.
func TestResolveMissRacingDelete(t *testing.T) {
	m := NewLocal()
	enc, err := EncodeVolume(2, 3, 4, testVolume(2, 3, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	info, _, err := m.PutNew(enc, "")
	if err != nil {
		t.Fatal(err)
	}
	entered, release := stallDecode(m)
	var wg sync.WaitGroup
	var blob *Blob
	var rerr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		blob, _, rerr = m.ResolveNormalized(info.ID)
	}()
	<-entered
	m.Delete(info.ID)
	close(release)
	wg.Wait()
	if rerr != nil || blob == nil || blob.Voxels() != 24 {
		t.Fatalf("miss racing a delete: blob %v, err %v", blob, rerr)
	}
	if m.CachedBytes() != 0 {
		t.Fatalf("deleted dataset cached: %d bytes", m.CachedBytes())
	}
	if _, err := m.Resolve(info.ID); err == nil {
		t.Fatal("deleted id resolves")
	}
}

// TestResolveNormalizedTwin pins the memoized twin to ffn's in-place
// Normalize bit for bit, and checks it is shared, charged to the cache
// budget, and released with its entry.
func TestResolveNormalizedTwin(t *testing.T) {
	m := NewLocal()
	data := testVolume(3, 5, 7, -2)
	enc, err := EncodeVolume(3, 5, 7, data)
	if err != nil {
		t.Fatal(err)
	}
	info, _, err := m.PutNew(enc, "")
	if err != nil {
		t.Fatal(err)
	}
	blob, norm, err := m.ResolveNormalized(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := (&ffn.Volume{D: 3, H: 5, W: 7, Data: append([]float32(nil), data...)}).Normalize()
	for i := range want.Data {
		if norm[i] != want.Data[i] {
			t.Fatalf("twin voxel %d = %v, want %v", i, norm[i], want.Data[i])
		}
	}
	for i := range data {
		if blob.Data[i] != data[i] {
			t.Fatal("normalizing changed the shared decode")
		}
	}
	if got := m.CachedBytes(); got != 2*4*len(data) {
		t.Fatalf("cache holds %d bytes, want decode plus twin = %d", got, 2*4*len(data))
	}
	_, again, _ := m.ResolveNormalized(info.ID)
	if &again[0] != &norm[0] {
		t.Fatal("second ResolveNormalized recomputed the twin")
	}
	m.Delete(info.ID)
	if m.CachedBytes() != 0 {
		t.Fatalf("cache holds %d bytes after delete", m.CachedBytes())
	}
}

// TestResolveNormalizedRespectsBudget fills a small cache with twins: the
// footprint never passes CacheBytes, and every ref still normalizes
// correctly after its entry is evicted.
func TestResolveNormalizedRespectsBudget(t *testing.T) {
	m := NewLocal()
	m.cacheCapacity = 5 * 4 * 1000 // two decodes with twins, plus one decode
	var ids []string
	for i := 0; i < 4; i++ {
		info, err := m.PutVolume(10, 10, 10, testVolume(10, 10, 10, float32(i)), "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	for round := 0; round < 2; round++ {
		for i, id := range ids {
			_, norm, err := m.ResolveNormalized(id)
			if err != nil {
				t.Fatal(err)
			}
			want := (&ffn.Volume{D: 10, H: 10, W: 10, Data: testVolume(10, 10, 10, float32(i))}).Normalize()
			for k := range want.Data {
				if norm[k] != want.Data[k] {
					t.Fatalf("round %d ref %d voxel %d: twin differs", round, i, k)
				}
			}
			if m.CachedBytes() > m.cacheCapacity {
				t.Fatalf("cache %d bytes over its %d cap", m.CachedBytes(), m.cacheCapacity)
			}
		}
	}
}

// TestPutMaskBitsMatchesPutMask requires a mask stored from packed bits to
// get the same content address as the float mask, and non-canonical bits
// to be refused.
func TestPutMaskBitsMatchesPutMask(t *testing.T) {
	m := NewLocal()
	data := make([]float32, 3*3*3)
	for i := range data {
		if i%4 == 1 {
			data[i] = 1
		}
	}
	a, err := m.PutMask(3, 3, 3, data, "")
	if err != nil {
		t.Fatal(err)
	}
	bits := PackBits(data)
	b, err := m.PutMaskBits(3, 3, 3, bits, "")
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID {
		t.Fatalf("PutMaskBits id %s, PutMask id %s", b.ID, a.ID)
	}
	enc, _ := EncodeMask(3, 3, 3, data)
	if encBits, _ := encodeMaskBits(3, 3, 3, bits); !bytes.Equal(enc, encBits) {
		t.Fatal("encodeMaskBits differs from EncodeMask")
	}
	stray := append([]byte(nil), bits...)
	stray[len(stray)-1] |= 0x80 // bit 31 of a 27-voxel mask
	if _, err := m.PutMaskBits(3, 3, 3, stray, ""); err == nil {
		t.Fatal("padding bits accepted")
	}
	if _, err := m.PutMaskBits(3, 3, 3, bits[:2], ""); err == nil {
		t.Fatal("short bits accepted")
	}
}
