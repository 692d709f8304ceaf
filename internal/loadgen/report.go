package loadgen

import (
	"encoding/json"
	"os"
)

// Report is what cmd/loadgen emits: the spec that generated the workload,
// one entry per offered-load level, and environment notes.
type Report struct {
	Workload    string        `json:"workload"`
	GeneratedAt string        `json:"generatedAt,omitempty"`
	Host        string        `json:"host,omitempty"`
	Spec        WorkloadSpec  `json:"spec"`
	Levels      []LevelResult `json:"levels"`
}

// WriteReport writes the report as indented JSON to path, or to stdout
// when path is empty.
func WriteReport(path string, r *Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
