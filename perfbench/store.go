package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/durable"
	"repro/internal/resultstore"
	"repro/internal/stats"
	"repro/rtrbench"
)

// The daemon's shipped WAL settings (rtrbenchd -fsync, -fsync-every,
// -snapshot-every), which the store replay uses too.
const (
	walFsync      = durable.FsyncInterval
	walFsyncEvery = 100 * time.Millisecond
	walSnapEvery  = 64
)

// traceStore replays the traced service traffic's store operations straight
// into resultstore and durable, with the daemon's settings and -cache, timing
// each call: the per-call costs the daemon's job views cannot show.
func (b *bench) traceStore() error {
	dir, err := os.MkdirTemp(b.tmp, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	wal, err := durable.Open(durable.Options{Dir: filepath.Join(dir, "store"), Fsync: walFsync, FsyncEvery: walFsyncEvery})
	if err != nil {
		return err
	}
	st, _, err := resultstore.Open(resultstore.Options{MaxEntries: daemonCache, Log: wal, SnapshotEvery: walSnapEvery})
	if err != nil {
		wal.Close()
		return err
	}
	group := b.tr.group("store-replay")
	var lookups, puts []float64
	var records [][]byte
	for _, op := range b.storeOps {
		key, err := requestKey(op.seed)
		if err != nil {
			wal.Close()
			return err
		}
		name := "resultstore.Lookup"
		start := time.Now()
		if op.put {
			name = "resultstore.Put"
			err = st.Put(key, op.digest, op.doc)
		} else {
			st.Lookup(key)
		}
		end := time.Now()
		if err != nil {
			wal.Close()
			return fmt.Errorf("store replay: %w", err)
		}
		b.tr.add(span{id: b.tr.next(), group: group, name: name, layer: "resultstore", lane: laneMain, start: start, end: end})
		us := float64(end.Sub(start)) / float64(time.Microsecond)
		if op.put {
			puts = append(puts, us)
			rec, err := json.Marshal(struct {
				ReqKey string `json:"req_key"`
				Digest string `json:"digest"`
				Doc    []byte `json:"doc"`
			}{key, op.digest, op.doc})
			if err != nil {
				wal.Close()
				return err
			}
			records = append(records, rec)
		} else {
			lookups = append(lookups, us)
		}
	}
	if err := wal.Close(); err != nil {
		return err
	}
	b.setLayer("resultstore.lookup_us", stats.Median(lookups))
	b.setLayer("resultstore.put_us", stats.Median(puts))

	// durable.Log.Append alone, with records the size the store appended.
	log, err := durable.Open(durable.Options{Dir: filepath.Join(dir, "log"), Fsync: walFsync, FsyncEvery: walFsyncEvery})
	if err != nil {
		return err
	}
	none := func([]byte) error { return nil }
	if _, err := log.Recover(none, none); err != nil {
		log.Close()
		return err
	}
	var appends []float64
	for _, rec := range records {
		start := time.Now()
		err := log.Append(rec)
		end := time.Now()
		if err != nil {
			log.Close()
			return fmt.Errorf("durable append: %w", err)
		}
		b.tr.add(span{id: b.tr.next(), group: group, name: "durable.Log.Append", layer: "durable", lane: laneMain, start: start, end: end})
		appends = append(appends, float64(end.Sub(start))/float64(time.Microsecond))
	}
	b.setLayer("durable.append_us", stats.Median(appends))
	return log.Close()
}

// requestKey is rtrbenchd's result-store key for a job at seed: the
// normalized sweep options with Parallel erased, as JSON.
func requestKey(seed int64) (string, error) {
	opts, err := rtrbench.SuiteOptions{
		Options: rtrbench.Options{Size: rtrbench.SizeSmall, Seed: seed},
		Kernels: serviceKernels,
	}.Normalize()
	if err != nil {
		return "", err
	}
	opts.Parallel = 0
	key, err := json.Marshal(opts)
	return string(key), err
}
