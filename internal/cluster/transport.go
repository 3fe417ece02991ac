package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/chaos"
)

// HTTP plumbing for cluster RPCs. Every outbound call passes through three
// gates in order: the per-peer chaos site (an injected partition drops the
// RPC before it touches the network; an injected latency fault delays it),
// the per-peer circuit breaker (an open breaker fails fast instead of
// burning a timeout on a dead replica), and finally the real request with
// the caller's deadline propagated through the context. Outcomes feed the
// breaker: transport errors and 5xx responses are failures, everything
// else — including 4xx, which proves the peer is alive and parsing — is a
// success.

const (
	// ForwardedHeader marks a request proxied by a replica to the key's
	// owner; the owner must serve it locally (loop prevention).
	ForwardedHeader = "X-Cluster-Forwarded"
	// fromHeader carries the sender's advertised URL so inbound chaos can
	// partition per link and logs can name the caller.
	fromHeader = "X-Cluster-From"

	// maxRPCBody bounds any cluster RPC response or request body read into
	// memory (results for a stolen batch fit comfortably).
	maxRPCBody = 8 << 20
)

// errBreakerOpen marks an RPC refused by the peer's open breaker.
var errBreakerOpen = errors.New("cluster: peer breaker open")

// siteRPC names the outbound chaos site for one peer link.
func siteRPC(peerURL string) string { return "cluster.rpc:" + peerURL }

// siteInbound names the inbound chaos site for one peer link, decided on
// the receiving node. With the same -chaos.p.partition both directions of
// a link drop, which is what isolates a node completely.
func siteInbound(peerURL string) string { return "cluster.inbound:" + peerURL }

// rpc performs one HTTP call to a peer through the chaos and breaker
// gates, returning the status code and the (bounded) response body.
func (n *Node) rpc(ctx context.Context, p *peer, method, path, contentType string, body []byte, forwarded bool) (int, []byte, error) {
	site := siteRPC(p.url)
	n.chaos.Sleep(site)
	if n.chaos.Partitioned(site) {
		n.met.rpcDropped.Add(1)
		return 0, nil, chaos.ErrPartitioned
	}

	ok, gen, _ := p.brk.Allow()
	if !ok {
		return 0, nil, errBreakerOpen
	}
	status, respBody, err := n.doHTTP(ctx, p.url, method, path, contentType, body, forwarded)
	p.brk.Record(gen, err != nil || status >= http.StatusInternalServerError)
	return status, respBody, err
}

// doHTTP is the raw request, shared by rpc and nothing else; split out so
// the gates above stay readable.
func (n *Node) doHTTP(ctx context.Context, base, method, path, contentType string, body []byte, forwarded bool) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	req.Header.Set(fromHeader, n.cfg.Self)
	if forwarded {
		req.Header.Set(ForwardedHeader, "1")
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxRPCBody))
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, respBody, nil
}

// inboundPartitioned decides, on the receiving side, whether an injected
// partition severs this link; handlers answer 503 without doing work, as a
// partitioned network would simply never deliver the request.
func (n *Node) inboundPartitioned(r *http.Request) bool {
	from := r.Header.Get(fromHeader)
	if from == "" {
		from = "unknown"
	}
	site := siteInbound(from)
	n.chaos.Sleep(site)
	if n.chaos.Partitioned(site) {
		n.met.rpcDropped.Add(1)
		return true
	}
	return false
}

// rpcTimeout derives the per-RPC context: the parent's deadline when it is
// tighter, the configured RPC timeout otherwise.
func (n *Node) rpcTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, n.cfg.RPCTimeout)
}

// errStatus converts a non-2xx cluster response into an error.
func errStatus(status int, body []byte) error {
	const max = 120
	s := string(body)
	if len(s) > max {
		s = s[:max] + "…"
	}
	return fmt.Errorf("cluster: peer answered %d: %s", status, s)
}
