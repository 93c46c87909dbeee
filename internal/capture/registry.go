package capture

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// Options configures a backend opened through the registry. The zero
// value selects the backend's paper-baseline configuration.
type Options struct {
	// Fast substitutes cheap storage costs for the full Neo4j
	// simulation (warm-up and scan rounds), keeping matrix-style runs
	// in the hundreds of milliseconds. Timing experiments that want the
	// paper's cost shapes leave it false.
	Fast bool
	// Params carries backend-specific string keys in the config.ini
	// vocabulary of Appendix A.4 (e.g. simplify, ioruns, versioning,
	// reporter, storage, record_denied, record_reads_writes,
	// warmup_pages, scan_rounds). Unknown keys are ignored so profiles
	// can carry forward-compatible settings.
	Params map[string]string
}

// Param reads a raw backend-specific key.
func (o Options) Param(key string) (string, bool) {
	v, ok := o.Params[key]
	return v, ok
}

// Bool reads a boolean param, returning def when absent or malformed.
func (o Options) Bool(key string, def bool) bool {
	v, ok := o.Params[key]
	if !ok {
		return def
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return def
	}
	return b
}

// Int reads an integer param, returning def when absent or malformed.
func (o Options) Int(key string, def int) int {
	v, ok := o.Params[key]
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}

// Factory builds a recorder from registry options.
type Factory func(Options) (Recorder, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register adds a backend factory under a name. It errors on an empty
// name, a nil factory, or a name that is already taken, so tests can
// probe misuse; init-time registration uses MustRegister.
func Register(name string, f Factory) error {
	if name == "" {
		return fmt.Errorf("capture: register: empty backend name")
	}
	if f == nil {
		return fmt.Errorf("capture: register %q: nil factory", name)
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("capture: register %q: backend already registered", name)
	}
	registry[name] = f
	return nil
}

// MustRegister is Register that panics on error, for use from a
// backend package's init function.
func MustRegister(name string, f Factory) {
	if err := Register(name, f); err != nil {
		panic(err)
	}
}

// Open instantiates a registered backend by name. Backends register
// themselves from their package init, so callers import them for side
// effects only:
//
//	import _ "provmark/internal/capture/spade"
//
//	rec, err := capture.Open("spade", capture.Options{})
func Open(name string, opts Options) (Recorder, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("capture: unknown backend %q (have %v)", name, Backends())
	}
	rec, err := f(opts)
	if err != nil {
		return nil, fmt.Errorf("capture: open %q: %w", name, err)
	}
	return rec, nil
}

// Backends lists the registered backend names, sorted.
func Backends() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
