package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"
)

// settleTimeout bounds each install of a move whose source has already
// given up the state. Installs run detached from the caller's context,
// so a move cut mid-way still lands its state on a node.
const settleTimeout = 30 * time.Second

// Collections are the two id namespaces a node holds, named as their
// URL segment (/v1/streams, /v1/groups) and their list key.
var Collections = [...]string{"streams", "groups"}

// Transport is what a rebalance needs from the serving nodes: a health
// probe, the live ids of a collection, and the two halves of a
// checkpoint transfer. *StateClient is the HTTP transport; tests drive
// the rebalance over in-memory nodes.
type Transport interface {
	Healthy(ctx context.Context, node string) bool
	List(ctx context.Context, node, collection string) ([]string, error)
	Detach(ctx context.Context, node, collection, id string) ([]byte, error)
	Put(ctx context.Context, node, collection, id string, state []byte) error
}

// Handoff is one attempt of a rebalance: moving ID of Collection from
// its holder to its owner. A failed listing of From's collection is
// reported as a Handoff with no ID and no To.
type Handoff struct {
	Collection string
	ID         string
	From, To   string
	Err        error
}

// Transfer moves a stream or group between nodes: detach from the
// source (atomically capturing its final state), install on the
// target. If the install fails, the state is put back on the source so
// nothing is lost; a failed restore of the restore is reported joined
// with the original error and means the blob exists only in this
// process. Once the detach has returned, cancelling ctx no longer cuts
// the move: each install runs on ctx's values alone, for at most
// settleTimeout.
func Transfer(ctx context.Context, t Transport, from, to, collection, id string) error {
	kind := strings.TrimSuffix(collection, "s")
	state, err := t.Detach(ctx, from, collection, id)
	if err != nil {
		return fmt.Errorf("cluster: transferring %s %q: detach: %w", kind, id, err)
	}
	put := func(node string) error {
		ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), settleTimeout)
		defer cancel()
		return t.Put(ctx, node, collection, id, state)
	}
	if err := put(to); err != nil {
		err = fmt.Errorf("cluster: transferring %s %q to %s: %w", kind, id, to, err)
		if backErr := put(from); backErr != nil {
			return errors.Join(err, fmt.Errorf("cluster: returning %s %q to %s: %w", kind, id, from, backErr))
		}
		return err
	}
	return nil
}

// Probe builds the ring over the nodes that answer healthy.
func Probe(ctx context.Context, t Transport, nodes []string) *Ring {
	var up []string
	for _, n := range nodes {
		if t.Healthy(ctx, n) {
			up = append(up, n)
		}
	}
	return NewRing(up)
}

// Rebalance lists every ring member's streams and groups and transfers
// each id the member holds but does not own to its owner, reporting
// every attempt. Convergence is by observed placement, not ring
// history: a round after a router restart, a failed transfer or a
// membership change finishes whatever moves earlier rounds left, and a
// converged cluster costs one List per collection per member. A failed
// listing skips only that collection of that member. Once ctx ends no
// new move starts; the one in flight settles (see Transfer).
func Rebalance(ctx context.Context, t Transport, ring *Ring) []Handoff {
	var out []Handoff
	for _, holder := range ring.Members() {
		for _, coll := range Collections {
			if ctx.Err() != nil {
				return out
			}
			ids, err := t.List(ctx, holder, coll)
			if err != nil {
				out = append(out, Handoff{Collection: coll, From: holder, Err: err})
				continue
			}
			for _, id := range ids {
				if ctx.Err() != nil {
					return out
				}
				if owner := ring.Lookup(id); owner != holder {
					out = append(out, Handoff{coll, id, holder, owner, Transfer(ctx, t, holder, owner, coll, id)})
				}
			}
		}
	}
	return out
}
