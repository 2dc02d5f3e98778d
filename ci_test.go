package smartsra

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCIStepNamesParse: a step name in the workflow that is a plain YAML
// scalar may not contain ": " (YAML reads a mapping there) or " #" (a
// comment), or a standard YAML parser rejects the whole file; such a name is
// quoted. Nothing in the module parses YAML, so this checks the one rule the
// step names can break.
func TestCIStepNamesParse(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(ci), "\n") {
		name, ok := strings.CutPrefix(strings.TrimSpace(line), "- name: ")
		if !ok || strings.HasPrefix(name, `"`) || strings.HasPrefix(name, "'") {
			continue
		}
		if strings.Contains(name, ": ") || strings.Contains(name, " #") {
			t.Errorf("ci.yml:%d: the unquoted step name %q holds \": \" or \" #\"; quote it", i+1, name)
		}
	}
}
