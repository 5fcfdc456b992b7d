package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"

	"cachedarrays/internal/engine"
	"cachedarrays/internal/models"
)

// Key computes the content-addressed cache key of one run: a SHA-256 over
// a format header carrying engine.SimVersion, the canonical
// (default-resolved) engine config, the canonical mode name and the
// model's deterministic JSON serialization. The run *name* is
// deliberately not part of the key: two drivers submitting the same
// (model, mode, config) cell — the baselines table re-running a matrix
// cell, fig7async's synchronous points re-running fig7's — address the
// same cached result.
//
// The config is hashed by reflection over its canonical form, field names
// included, so any field added to engine.Config automatically changes the
// key space — a new knob can never silently alias an old result. Fields
// the hasher cannot canonicalize (non-nil pointers carrying live state)
// yield an error; Cacheable screens those out before Key is consulted.
func Key(model *models.Model, mode string, cfg engine.Config) (string, error) {
	canon, err := engine.Normalize(mode)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "cachedarrays-run v1\nsim=%d\nmode=%s\n", engine.SimVersion, canon)
	if err := hashValue(h, "cfg", reflect.ValueOf(cfg.Canonical())); err != nil {
		return "", err
	}
	fmt.Fprintf(h, "model=")
	if err := model.SaveJSON(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// HashConfig writes the canonical (default-resolved) config's
// name=value field lines into w under the given field-name prefix — the
// exact byte stream Key hashes for one run's config, exported so
// composite keys (the cluster's whole-run key hashes one platform config
// plus one per-job config each) stay field-name-sensitive the same way.
// Configs carrying live state (a non-nil Metrics registry) are an error,
// mirroring Key.
func HashConfig(w io.Writer, prefix string, cfg engine.Config) error {
	return hashValue(w, prefix, reflect.ValueOf(cfg.Canonical()))
}

// hashValue writes a canonical name=value line per leaf field, recursing
// through structs, slices and arrays. Unexported fields, non-nil pointers
// and uncanonicalizable kinds (maps, funcs, channels) are errors — better
// an uncacheable run than a key that ignores state.
func hashValue(w io.Writer, name string, v reflect.Value) error {
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				return fmt.Errorf("sched: config field %s.%s is unexported", name, f.Name)
			}
			if err := hashValue(w, name+"."+f.Name, v.Field(i)); err != nil {
				return err
			}
		}
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			return fmt.Errorf("sched: config field %s carries live state (%s)", name, v.Type())
		}
		fmt.Fprintf(w, "%s=nil\n", name)
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(w, "%s.len=%d\n", name, v.Len())
		for i := 0; i < v.Len(); i++ {
			if err := hashValue(w, fmt.Sprintf("%s[%d]", name, i), v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.String:
		fmt.Fprintf(w, "%s=%v\n", name, v.Interface())
	default:
		return fmt.Errorf("sched: cannot hash config field %s of kind %s", name, v.Kind())
	}
	return nil
}
