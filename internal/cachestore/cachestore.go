// Package cachestore is a persistent, content-addressed result store:
// the on-disk second tier behind the engine's in-memory fingerprint
// cache. A daemon that restarts reopens the same directory and keeps its
// warm cache — the optimizations of this module are deterministic
// functions of the input graph and the pipeline configuration, so a
// stored result is valid forever.
//
// The store is deliberately paranoid about the disk:
//
//   - writes are atomic (temp file in the same directory + rename), so a
//     crash mid-write never leaves a half-visible entry;
//   - every entry embeds its key and a SHA-256 checksum of its payload;
//     a read that fails to decode, names a different key (hash
//     collision, truncation), or fails the checksum deletes the file and
//     reports a miss — corrupted state costs one recompute, never a
//     wrong answer;
//   - total payload size is capped; inserting past the cap evicts
//     least-recently-used entries (access order survives restarts via
//     the index file, falling back to file mtimes).
//
// All methods are safe for concurrent use.
package cachestore

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// DefaultMaxBytes caps the store's payload when Open is given maxBytes 0:
// 256 MiB, roomy for hundreds of thousands of optimized programs.
const DefaultMaxBytes = 256 << 20

// entryExt is the filename suffix of stored entries.
const entryExt = ".cache.json"

// indexFile persists the LRU access order and cumulative stats across
// restarts. It is advisory: a missing or corrupt index degrades to
// mtime-ordered eviction, never to data loss.
const indexFile = "index.json"

// Stats reports the cumulative behaviour of one Store since Open.
type Stats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Puts        int64 `json:"puts"`
	Evictions   int64 `json:"evictions"`
	Corruptions int64 `json:"corruptions"`
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
}

// envelope is the on-disk shape of one entry: the full key (the filename
// is only its hash), a SHA-256 of the payload, and the payload itself.
type envelope struct {
	Key  string `json:"key"`
	Sum  string `json:"sum"`
	Data []byte `json:"data"`
}

// indexEntry is one stored file: a record of the persisted index, and the
// in-memory LRU's element value.
type indexEntry struct {
	File string `json:"file"`
	Size int64  `json:"size"`
}

// persistedIndex is the indexFile shape.
type persistedIndex struct {
	Order []indexEntry `json:"order"` // LRU order, least recent first
}

// Store is a persistent content-addressed cache directory. Construct with
// Open; the zero value is not usable.
type Store struct {
	dir      string
	maxBytes int64

	mu    sync.Mutex
	index map[string]*list.Element // file base name -> its *indexEntry in lru
	lru   list.List                // front = least recently used
	bytes int64

	hits        int64
	misses      int64
	puts        int64
	evictions   int64
	corruptions int64
}

// Open creates (if needed) and loads the store rooted at dir. maxBytes
// caps the total payload size; 0 selects DefaultMaxBytes, negative
// disables the cap. Existing entries are indexed in LRU order from the
// persisted index when present, otherwise by file modification time.
func Open(dir string, maxBytes int64) (*Store, error) {
	if maxBytes == 0 {
		maxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes, index: map[string]*list.Element{}}
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// load scans the directory into the LRU index. Stale temp files from a
// crashed writer are removed.
func (s *Store) load() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("cachestore: %w", err)
	}
	type onDisk struct {
		file  string
		size  int64
		mtime time.Time
	}
	var found []onDisk
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, ".tmp-") {
			os.Remove(filepath.Join(s.dir, name)) // crashed writer leftovers
			continue
		}
		if !strings.HasSuffix(name, entryExt) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		found = append(found, onDisk{file: name, size: info.Size(), mtime: info.ModTime()})
	}
	// Oldest first, so the insertion below leaves the most recent at the
	// tail (= evicted last).
	sort.Slice(found, func(i, j int) bool { return found[i].mtime.Before(found[j].mtime) })

	// The persisted index, when readable, refines the mtime order with the
	// true access order of the previous run.
	if data, err := os.ReadFile(filepath.Join(s.dir, indexFile)); err == nil {
		var idx persistedIndex
		if json.Unmarshal(data, &idx) == nil && len(idx.Order) > 0 {
			pos := make(map[string]int, len(idx.Order))
			for i, e := range idx.Order {
				pos[e.File] = i + 1
			}
			sort.SliceStable(found, func(i, j int) bool {
				pi, pj := pos[found[i].file], pos[found[j].file]
				if pi == 0 || pj == 0 {
					return pi != 0 // unknown files (newer than the index) last = most recent
				}
				return pi < pj
			})
		}
	}
	for _, f := range found {
		s.index[f.file] = s.lru.PushBack(&indexEntry{File: f.file, Size: f.size})
		s.bytes += f.size
	}
	s.evictLocked()
	return nil
}

// fileFor maps a key to its stable file name: a SHA-256 of the key, so
// arbitrary key strings (fingerprints plus pipeline configuration) become
// safe, fixed-length path components.
func fileFor(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + entryExt
}

// Get returns the payload stored under key, or ok=false. A corrupt entry
// (undecodable, key mismatch, checksum failure) is deleted and reported
// as a miss.
func (s *Store) Get(key string) ([]byte, bool) {
	file := fileFor(key)
	data, err := os.ReadFile(filepath.Join(s.dir, file))
	if err != nil {
		s.mu.Lock()
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil || env.Key != key || !sumOK(env) {
		s.discardCorrupt(file)
		return nil, false
	}
	s.mu.Lock()
	s.hits++
	if el, ok := s.index[file]; ok {
		s.lru.MoveToBack(el)
	}
	s.mu.Unlock()
	// Best-effort mtime touch so the LRU order survives a restart even
	// without a flushed index.
	now := time.Now()
	os.Chtimes(filepath.Join(s.dir, file), now, now)
	return env.Data, true
}

func sumOK(env envelope) bool {
	sum := sha256.Sum256(env.Data)
	return env.Sum == hex.EncodeToString(sum[:])
}

// discardCorrupt removes a damaged entry and accounts for it.
func (s *Store) discardCorrupt(file string) {
	s.mu.Lock()
	s.corruptions++
	s.misses++
	if el, ok := s.index[file]; ok {
		delete(s.index, file)
		s.bytes -= s.lru.Remove(el).(*indexEntry).Size
	}
	s.mu.Unlock()
	os.Remove(filepath.Join(s.dir, file))
}

// Put stores data under key, atomically: the entry is written to a temp
// file in the store directory and renamed into place, then the LRU is
// trimmed to the byte cap. Storing an entry larger than the whole cap is
// a no-op rather than an error — the store's job is to help, not to veto.
func (s *Store) Put(key string, data []byte) error {
	sum := sha256.Sum256(data)
	env := envelope{Key: key, Sum: hex.EncodeToString(sum[:]), Data: data}
	blob, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("cachestore: %w", err)
	}
	if s.maxBytes > 0 && int64(len(blob)) > s.maxBytes {
		return nil
	}
	file := fileFor(key)
	if err := s.writeAtomic(file, blob); err != nil {
		return err
	}

	s.mu.Lock()
	s.puts++
	if el, ok := s.index[file]; ok {
		e := el.Value.(*indexEntry)
		s.bytes += int64(len(blob)) - e.Size
		e.Size = int64(len(blob))
		s.lru.MoveToBack(el)
	} else {
		s.index[file] = s.lru.PushBack(&indexEntry{File: file, Size: int64(len(blob))})
		s.bytes += int64(len(blob))
	}
	s.evictLocked()
	s.mu.Unlock()
	return nil
}

// evictLocked trims least-recently-used entries until the byte cap holds.
// Caller holds s.mu.
func (s *Store) evictLocked() {
	if s.maxBytes <= 0 {
		return
	}
	for s.bytes > s.maxBytes && s.lru.Len() > 0 {
		e := s.lru.Remove(s.lru.Front()).(*indexEntry)
		delete(s.index, e.File)
		s.bytes -= e.Size
		s.evictions++
		os.Remove(filepath.Join(s.dir, e.File))
	}
}

// Len returns the number of stored entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Stats returns a snapshot of the store's cumulative counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits: s.hits, Misses: s.misses, Puts: s.puts,
		Evictions: s.evictions, Corruptions: s.corruptions,
		Entries: len(s.index), Bytes: s.bytes,
	}
}

// Flush persists the LRU access order to the index file (atomically, like
// every other write). Call it on graceful shutdown; a crash without it
// only degrades the next run's eviction order to mtimes.
func (s *Store) Flush() error {
	s.mu.Lock()
	idx := persistedIndex{}
	for el := s.lru.Front(); el != nil; el = el.Next() {
		idx.Order = append(idx.Order, *el.Value.(*indexEntry))
	}
	s.mu.Unlock()
	blob, err := json.Marshal(idx)
	if err != nil {
		return fmt.Errorf("cachestore: %w", err)
	}
	return s.writeAtomic(indexFile, blob)
}

// writeAtomic writes blob to name in the store directory through a temp
// file there and a rename, so no reader ever sees a half-written file.
func (s *Store) writeAtomic(name string, blob []byte) error {
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("cachestore: %w", err)
	}
	_, werr := tmp.Write(blob)
	if err := errors.Join(werr, tmp.Close()); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cachestore: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, name)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cachestore: %w", err)
	}
	return nil
}

// Close flushes the index. The store holds no other resources (every
// read/write opens and closes its own file).
func (s *Store) Close() error { return s.Flush() }
