package analysis_test

import (
	"testing"

	"rstknn/internal/analysis"
	"rstknn/internal/analysis/analysistest"
)

func TestErrLost(t *testing.T) {
	analysistest.Run(t, analysis.ErrLost, "rstknn/internal/core")
}

// TestErrLostScopedToStoragePackages: the analyzer must stay silent
// outside internal/core, internal/storage, and internal/iurtree — the
// locksafe fixture drops GetTracked errors freely and must produce no
// errlost findings.
func TestErrLostScopedToStoragePackages(t *testing.T) {
	if ds := analysistest.Diagnostics(t, analysis.ErrLost, "locksafe", true); len(ds) != 0 {
		t.Errorf("errlost reported outside its package scope: %v", ds)
	}
}
