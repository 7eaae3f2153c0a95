package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
)

// maxStateBytes caps how much of a state response the client will
// buffer: engine blobs are typically kilobytes (a whole-stream simple
// random buffer is the worst case), so 64 MiB is generous while still
// refusing to slurp an unbounded body from a confused peer.
const maxStateBytes = 64 << 20

// ErrPeer is wrapped by every non-2xx peer response, carrying the
// status and the peer's error body; branch with errors.Is.
var ErrPeer = errors.New("peer error")

// PeerError is a non-2xx peer response: the request, the peer's status
// and its (truncated) error body. It wraps ErrPeer; extract it with
// errors.As to read the status.
type PeerError struct {
	Method string
	URL    string
	Status int
	Body   string
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("cluster: %s %s: status %d: %s: %v", e.Method, e.URL, e.Status, e.Body, ErrPeer)
}

func (e *PeerError) Unwrap() error { return ErrPeer }

// StateClient drives the state resource of both id namespaces
// (GET/PUT/DELETE {base}/v1/{collection}/{id}/state, where collection
// is "streams" or "groups") on sampled peers: *StateClient is the
// HTTP Transport of a rebalance. The zero value uses http.DefaultClient;
// inject a Client with timeouts for production use. Methods take the
// peer base URL explicitly, so one StateClient serves a whole cluster.
type StateClient struct {
	Client *http.Client
}

func (c *StateClient) client() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return http.DefaultClient
}

// stateURL builds {base}/v1/{collection}/{id}/state with the id
// path-escaped.
func stateURL(base, collection, id string) string {
	return base + "/v1/" + collection + "/" + url.PathEscape(id) + "/state"
}

// do runs one request and returns the body on 2xx, an ErrPeer
// otherwise (peerStatus).
func (c *StateClient) do(req *http.Request) ([]byte, error) {
	resp, err := c.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, io.LimitReader(resp.Body, maxStateBytes)); err != nil {
		return nil, fmt.Errorf("cluster: reading %s %s: %w", req.Method, req.URL, err)
	}
	if err := peerStatus(resp, buf.Bytes()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// peerStatus is nil for a 2xx response; any other status becomes a
// *PeerError carrying the peer's (truncated) error body.
func peerStatus(resp *http.Response, body []byte) error {
	if resp.StatusCode/100 == 2 {
		return nil
	}
	req := resp.Request
	return &PeerError{Method: req.Method, URL: req.URL.String(), Status: resp.StatusCode,
		Body: string(bytes.TrimSpace(body[:min(len(body), 256)]))}
}

// Put installs an exported state blob as a new stream or group on a
// peer.
func (c *StateClient) Put(ctx context.Context, base, collection, id string, state []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, stateURL(base, collection, id), bytes.NewReader(state))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	_, err = c.do(req)
	return err
}

// Detach removes a stream or group from a peer without finalizing it
// and returns its final state — the atomic source half of a handoff:
// after it returns, no tick can land on the old owner.
func (c *StateClient) Detach(ctx context.Context, base, collection, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, stateURL(base, collection, id), nil)
	if err != nil {
		return nil, err
	}
	return c.do(req)
}

// List returns a peer's live ids in a collection (GET
// {base}/v1/{collection}).
func (c *StateClient) List(ctx context.Context, base, collection string) ([]string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/"+collection, nil)
	if err != nil {
		return nil, err
	}
	body, err := c.do(req)
	if err != nil {
		return nil, err
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("cluster: parsing %s list: %w", collection, err)
	}
	var ids []string
	if raw, ok := doc[collection]; ok {
		if err := json.Unmarshal(raw, &ids); err != nil {
			return nil, fmt.Errorf("cluster: parsing %s list: %w", collection, err)
		}
	}
	return ids, nil
}

// Healthy probes a peer's liveness endpoint (GET /healthz); any error
// or non-2xx status reads as unhealthy.
func (c *StateClient) Healthy(ctx context.Context, base string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return false
	}
	_, err = c.do(req)
	return err == nil
}
