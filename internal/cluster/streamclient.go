package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/service"
)

// ErrStreamTruncated marks a measure stream that ended without a
// terminal done (or error) line: the backend died, the connection was
// severed, or a proxy cut the body mid-chunk. Cells delivered before
// the cut are good — the determinism contract makes them bit-identical
// wherever they were computed — so the scheduler keeps them and
// re-dispatches only the remainder.
var ErrStreamTruncated = errors.New("cluster: measure stream truncated")

// MeasureStream posts req to /v1/measure?stream=1 and invokes onCell
// for every cell line as it arrives, in backend completion order.
// Keep-alive lines are consumed internally. A nil return means the
// terminal done line arrived and every requested cell was delivered; a
// stream severed before the terminal line (including mid-line) returns
// an error wrapping ErrStreamTruncated; an in-band error line comes
// back as a backend error. An onCell error aborts the stream and is
// returned as-is.
//
// The exchange's wall time, success or failure, feeds the backend's
// latency histogram.
func (c *Client) MeasureStream(ctx context.Context, req *service.MeasureRequest, onCell func(sc *service.StreamCell) error) error {
	ctx, cancel := c.withTimeout(ctx)
	defer cancel()
	start := time.Now()
	defer func() { c.lat.Observe(time.Since(start)) }()
	resp, err := c.do(ctx, http.MethodPost, "/v1/measure?stream=1", req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()

	dec := service.NewStreamDecoder(resp.Body)
	delivered := 0
	for {
		ev, err := dec.Next()
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return ctxErr
			}
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				// The body ended (cleanly or mid-line) before a terminal
				// line — the stream-truncation signature.
				return fmt.Errorf("cluster: %s: %w after %d cells", c.base, ErrStreamTruncated, delivered)
			}
			// Malformed or oversized lines mean the byte stream itself was
			// damaged in flight; classify with truncation — transient, and
			// the delivered prefix is still good.
			return fmt.Errorf("cluster: %s: %w: %v", c.base, ErrStreamTruncated, err)
		}
		switch {
		case ev.Cell != nil:
			if ev.Cell.Index < 0 || ev.Cell.Index >= len(req.Cells) {
				return &backendError{Backend: c.base,
					Msg: fmt.Sprintf("stream cell index %d out of range (sent %d cells)", ev.Cell.Index, len(req.Cells))}
			}
			if err := onCell(ev.Cell); err != nil {
				return err
			}
			delivered++
		case ev.Error != "":
			return &backendError{Backend: c.base, Msg: "stream error: " + ev.Error}
		case ev.Done != nil:
			if delivered != len(req.Cells) {
				return &backendError{Backend: c.base,
					Msg: fmt.Sprintf("stream done after %d cells, want %d", delivered, len(req.Cells))}
			}
			return nil
		default:
			// Header and keep-alive lines carry no cells; skip them.
		}
	}
}
