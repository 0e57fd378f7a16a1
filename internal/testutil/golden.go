package testutil

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// Golden holds got, one value per named case, to the JSON object committed
// at path: the same cases, each DeepEqual to what the file decodes to. With
// update set it rewrites the file from got instead — the -update-golden
// flag of the packages that keep such files.
func Golden[T any](t *testing.T, path string, update bool, got map[string]T) {
	t.Helper()
	if update {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]T
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s holds %d cases, test produced %d", path, len(want), len(got))
	}
	for key, w := range want {
		if !reflect.DeepEqual(got[key], w) {
			t.Errorf("%s: moved from %s\n got %+v\nwant %+v", key, path, got[key], w)
		}
	}
}
