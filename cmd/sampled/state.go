package main

// The durability surface of the daemon: the per-stream state resource
// (the wire the cluster router's checkpoint-transfer handoff rides),
// the health/readiness probes, and the -checkpoint-dir lifecycle —
// restore on boot, periodic snapshots off the hot path, one final
// snapshot on shutdown, and archival of idle streams as they are
// evicted.

import (
	"errors"
	"io"
	"io/fs"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/sampling/hub"
	"repro/sampling/persist"
)

// checkpointFile is the container's name inside -checkpoint-dir; the
// evicted/ subdirectory archives final per-stream blobs as Sweep
// retires idle streams.
const (
	checkpointFile = "hub.ckpt"
	evictedDir     = "evicted"
)

// healthz is pure liveness: the process is up and serving. It never
// looks at the hub — a daemon mid-restore or mid-drain is still alive.
func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyz is readiness: false (503) until the boot-time restore has
// completed and again once shutdown has begun draining, so a load
// balancer or cluster router stops sending traffic before the
// listener goes away.
func (s *server) readyz(w http.ResponseWriter, r *http.Request) {
	if s.ready != nil && !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "not ready"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// maxPooledState is the largest state buffer the pool keeps, and the
// most a state PUT presizes from its Content-Length: a 1000-sample
// reservoir with two estimators is ~20 KB, so this covers every bounded
// stream with room to spare while a lying header cannot make the
// daemon allocate the whole body cap up front.
const maxPooledState = 1 << 20

// stateBufs pools the byte buffers stream and group state move through:
// DELETE appends the detached blob into one, PUT reads the body into one.
// Reuse is safe because no restore keeps a view into its blob — every
// decoder copies what it keeps (TestRestoreDoesNotAliasBlob).
var stateBufs = sync.Pool{New: func() any { return new([]byte) }}

func getStateBuf() *[]byte { return stateBufs.Get().(*[]byte) }

func putStateBuf(b *[]byte) {
	if cap(*b) > maxPooledState {
		return
	}
	*b = (*b)[:0]
	stateBufs.Put(b)
}

// writeState writes a state blob as the whole response: one Write
// behind an explicit Content-Length, so the body is neither chunked nor
// split.
func writeState(w http.ResponseWriter, blob []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(len(blob)))
	w.Write(blob)
}

// getState builds the state-export handler (GET /v1/{streams,groups}/
// {id}/state): the exact engine or group state, without disturbing it.
func getState(export func(string) ([]byte, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		blob, err := export(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeState(w, blob)
	}
}

// readStateBody reads a state-blob request body under the body cap into
// *buf, incrementally (no unbounded slurp), reporting the 400/413
// itself on failure. A declared Content-Length presizes the buffer, up
// to maxPooledState.
func (s *server) readStateBody(w http.ResponseWriter, r *http.Request, buf *[]byte) bool {
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	b := slices.Grow((*buf)[:0], int(min(max(r.ContentLength, 0), maxPooledState)))
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, 4096)
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			*buf = b
			writeBodyError(w, err)
			return false
		}
	}
	*buf = b
	return true
}

// putState builds the state-install handler (PUT /v1/{streams,groups}/
// {id}/state), the receiving half of a handoff: the blob becomes a new
// stream or group. A live id is a 409, a corrupt blob a 400.
func (s *server) putState(install func(string, []byte) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		buf := getStateBuf()
		defer putStateBuf(buf)
		if !s.readStateBody(w, r, buf) {
			return
		}
		id := r.PathValue("id")
		if err := install(id, *buf); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"id": id, "status": "restored"})
	}
}

// detachState builds the detach handler (DELETE /v1/{streams,groups}/
// {id}/state): the stream or group is removed without finalizing and
// its final state returned — the sending half of a handoff, atomic
// against concurrent ticks. The blob is appended into a pooled buffer.
func detachState(appendDetach func([]byte, string) ([]byte, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		buf := getStateBuf()
		defer putStateBuf(buf)
		blob, err := appendDetach((*buf)[:0], r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		*buf = blob
		writeState(w, blob)
	}
}

// checkpointer owns the -checkpoint-dir lifecycle around one hub.
type checkpointer struct {
	hub    *hub.Hub
	dir    string
	logger *slog.Logger
}

func newCheckpointer(h *hub.Hub, dir string, logger *slog.Logger) *checkpointer {
	return &checkpointer{hub: h, dir: dir, logger: logger}
}

// restore loads the checkpoint file, if one exists, into the hub — the
// boot half of a zero-downtime restart. A missing file is a clean
// first boot; a corrupt file is a hard error (refusing to serve with
// silently dropped state beats serving wrong answers).
func (c *checkpointer) restore() error {
	path := filepath.Join(c.dir, checkpointFile)
	ck, err := persist.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		c.logger.Info("no checkpoint to restore", "path", path)
		return nil
	}
	if err != nil {
		return err
	}
	if err := c.hub.Restore(ck); err != nil {
		return err
	}
	c.logger.Info("restored checkpoint",
		"path", path, "streams", len(ck.Streams), "groups", len(ck.Groups),
		"taken_at", time.Unix(0, ck.TakenAtUnixNano).UTC().Format(time.RFC3339))
	return nil
}

// save cuts one whole-hub checkpoint and publishes it atomically.
func (c *checkpointer) save() error {
	ck, err := c.hub.Checkpoint()
	if err != nil {
		return err
	}
	return persist.WriteFile(filepath.Join(c.dir, checkpointFile), ck)
}

// periodic writes one of the periodic checkpoints, logging rather
// than returning a failure: the next period retries. The final
// checkpoint is not written here — run writes it after the shutdown
// drain, so the file carries every acknowledged tick.
func (c *checkpointer) periodic() {
	if err := c.save(); err != nil {
		c.logger.Error("checkpoint failed", "err", err)
	} else {
		c.logger.Debug("checkpoint written", "dir", c.dir)
	}
}

// archiveEvicted returns the hub's evict hook for checkpoint directory
// dir: it archives an idle stream's final state under <dir>/evicted/
// as Sweep retires it — the stream will never tick again, so this blob
// is its complete history. The blob is published atomically, like the
// checkpoint, so a reader never sees a partial archive. Archive
// failures are logged, never fatal: eviction must proceed regardless.
func archiveEvicted(dir string, logger *slog.Logger) func(hub.Eviction) {
	dir = filepath.Join(dir, evictedDir)
	return func(ev hub.Eviction) {
		var blob []byte
		var err error
		suffix := ".engine"
		switch {
		case ev.Engine != nil:
			blob, err = ev.Engine.MarshalState()
		case ev.Group != nil:
			blob, err = ev.Group.MarshalState()
			suffix = ".group"
		}
		path := filepath.Join(dir, url.PathEscape(ev.ID)+suffix)
		if err == nil {
			err = os.MkdirAll(dir, 0o755)
		}
		if err == nil {
			err = persist.WriteAtomic(path, blob)
		}
		if err != nil {
			logger.Error("archiving evicted stream failed", "id", ev.ID, "err", err)
			return
		}
		logger.Info("archived evicted stream", "id", ev.ID, "path", path)
	}
}
