package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteRackJSON encodes a rack trace as JSON.
func WriteRackJSON(w io.Writer, r *RackTrace) error {
	enc := json.NewEncoder(w)
	return enc.Encode(r)
}

// ReadRackJSON decodes a rack trace from JSON.
func ReadRackJSON(r io.Reader) (*RackTrace, error) {
	var out RackTrace
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return nil, fmt.Errorf("trace: decode rack: %w", err)
	}
	return &out, nil
}
