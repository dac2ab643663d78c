package main

import (
	"corundum/internal/baselines/corundumeng"
	"corundum/internal/pool"
	"corundum/internal/workloads"
)

// Shape is the keyspace's shape in the store, counted exactly: the chain
// entries a GET or SET of the closed-loop phase walks on average, and the
// longest chain the whole stream ever builds.
type Shape struct {
	EntriesPerGet, EntriesPerSet float64
	MaxChain                     int
}

// keyspaceShape replays the plan's keys (preload, open, then closed phase,
// each interleaved as the ladder does) against a model of the bucket
// chains. Keys are placed with the hash of a store built by the public
// constructor with the server's default directory size, so the count
// follows whatever hash the store uses. New entries go to the chain head,
// as KVStore's insert does.
func keyspaceShape(pl *Plan) (Shape, error) {
	p, err := pool.Create("", pool.Config{Size: 8 << 20})
	if err != nil {
		return Shape{}, err
	}
	defer p.Close()
	kv, err := workloads.NewKVStore(corundumeng.Wrap(p), serverBuckets)
	if err != nil {
		return Shape{}, err
	}
	// chains[b] lists bucket b's keys, tail first: the head is the last.
	chains := make([][]uint64, kv.Buckets())
	var sh Shape
	var gets, sets, getWalk, setWalk int
	run := func(reqs []Req, count bool) {
		for _, r := range reqs {
			b := kv.Bucket(r.Key)
			ch := chains[b]
			walked, at := 0, -1
			for i := len(ch) - 1; i >= 0; i-- {
				walked++
				if ch[i] == r.Key {
					at = i
					break
				}
			}
			switch r.Kind {
			case Get:
				if count {
					gets++
					getWalk += walked
				}
			case Set:
				if count {
					sets++
					setWalk += walked
				}
				if at < 0 {
					chains[b] = append(ch, r.Key)
					sh.MaxChain = max(sh.MaxChain, len(chains[b]))
				}
			case Del:
				if at >= 0 {
					chains[b] = append(ch[:at], ch[at+1:]...)
				}
			}
		}
	}
	run(interleave(pl.Preload, -1), false)
	run(interleave(pl.Open, -1), false)
	run(interleave(pl.Closed, -1), true)
	if gets > 0 {
		sh.EntriesPerGet = float64(getWalk) / float64(gets)
	}
	if sets > 0 {
		sh.EntriesPerSet = float64(setWalk) / float64(sets)
	}
	return sh, nil
}
