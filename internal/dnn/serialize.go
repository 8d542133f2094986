package dnn

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// The .rmod serialization is this repo's stand-in for the paper's ONNX
// export: trained controllers are written by the build flow (cmd/rose-train)
// and loaded by the deployment runtime.

func init() {
	gob.Register(&Conv{})
	gob.Register(&BatchNorm{})
	gob.Register(ReLU{})
	gob.Register(&Block{})
}

// Save writes the network to w in .rmod format.
func Save(w io.Writer, n *Net) error {
	if err := n.Validate(); err != nil {
		return fmt.Errorf("dnn: refusing to save invalid net: %w", err)
	}
	return gob.NewEncoder(w).Encode(n)
}

// Load reads a network from r and validates it.
func Load(r io.Reader) (*Net, error) {
	var n Net
	if err := gob.NewDecoder(r).Decode(&n); err != nil {
		return nil, fmt.Errorf("dnn: decoding model: %w", err)
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return &n, nil
}

// SaveFile writes the network to path.
func SaveFile(path string, n *Net) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := Save(f, n); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a network from path.
func LoadFile(path string) (*Net, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
