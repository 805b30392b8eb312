package client

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"gputopo/internal/serveapi"
)

// SubmitJob posts a job and returns its decision (placed or queued).
// Admission-control 429s are retried per the client's budget before the
// final *APIError (code queue_full) surfaces.
func (c *Client) SubmitJob(ctx context.Context, req serveapi.JobRequest) (*serveapi.JobResponse, error) {
	var out serveapi.JobResponse
	if err := c.doJSON(ctx, "POST", "/v1/jobs", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ReleaseJob releases a running job (freeing its GPUs) or withdraws a
// queued one. Unknown IDs return an *APIError with code job_not_found.
func (c *Client) ReleaseJob(ctx context.Context, id string) (*serveapi.ReleaseResponse, error) {
	var out serveapi.ReleaseResponse
	if err := c.doJSON(ctx, "DELETE", "/v1/jobs/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Decisions pages the decision log: records with seq > after, oldest
// first, at most limit (limit <= 0 requests the server default). Page
// forward by passing the previous response's NextAfter; check Truncated
// to detect ring drop-off.
func (c *Client) Decisions(ctx context.Context, after, limit int) (*serveapi.DecisionsResponse, error) {
	q := url.Values{}
	if after > 0 {
		q.Set("after", strconv.Itoa(after))
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	path := "/v1/decisions"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out serveapi.DecisionsResponse
	if err := c.doJSON(ctx, "GET", path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AllDecisions follows the cursor from after until the log is drained,
// reporting whether the ring truncated any records the cursor expected.
//
//lint:ignore deadcode test helper: client and serve tests read whole decision logs through it
func (c *Client) AllDecisions(ctx context.Context, after int) ([]serveapi.DecisionRecord, bool, error) {
	var all []serveapi.DecisionRecord
	truncated := false
	for {
		page, err := c.Decisions(ctx, after, 0)
		if err != nil {
			return all, truncated, err
		}
		truncated = truncated || page.Truncated
		all = append(all, page.Decisions...)
		if len(page.Decisions) == 0 || page.NextAfter <= after {
			return all, truncated, nil
		}
		after = page.NextAfter
	}
}

// State fetches the full cluster + scheduler snapshot.
func (c *Client) State(ctx context.Context) (*serveapi.StateResponse, error) {
	var out serveapi.StateResponse
	if err := c.doJSON(ctx, "GET", "/v1/state", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health checks /healthz.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, "GET", c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	c.requests.Add(1)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("toposerve: healthz returned %d", resp.StatusCode)
	}
	return nil
}
