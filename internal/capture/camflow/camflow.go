// Package camflow simulates CamFlow 0.4.5: whole-system provenance
// captured inside the kernel via Linux Security Module hooks, relayed
// to user space and serialized as W3C PROV-JSON. Behaviours modelled
// from the paper:
//
//   - the hook set of 0.4.5 covers file open/permission, inode create/
//     link/rename/unlink/setattr, credential changes, execve, task
//     creation/exit and pipe splice (tee) — but not dup (no hook
//     exists), symlink, mknod or pipe creation (NR in Table 2), and the
//     eventual free after close is not attributable to the call (LP);
//   - denied operations are observable in principle but not recorded by
//     0.4.5 (the Alice use case finding);
//   - entities and activities are versioned: every state change yields
//     a fresh node linked to its predecessor;
//   - files are represented as an inode object node plus a separate
//     path entity (Figure 1b: rename adds a new path node; the old path
//     does not appear);
//   - whole-system recording relates runs to one graph; re-serialization
//     across recording sessions (the 0.4.5 workaround) plus relay
//     timing produce occasional run-to-run structural jitter, which
//     ProvMark absorbs with extra trials, graph filtering, and
//     smallest-consistent-pair selection.
package camflow

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"

	"provmark/internal/benchprog"
	"provmark/internal/capture"
	"provmark/internal/graph"
	"provmark/internal/oskernel"
	"provmark/internal/provjson"
)

// Config tunes the CamFlow simulator.
type Config struct {
	// RecordDenied enables recording of denied permission checks
	// (off in 0.4.5's default configuration).
	RecordDenied bool
	// JitterPeriod makes every JitterPeriod-th trial carry extra relay
	// structure (an extra boot entity), modelling the run-to-run
	// variation Section 3.2 describes. Zero disables jitter.
	JitterPeriod int
	// CorruptPeriod makes every CorruptPeriod-th trial lose its machine
	// agent (a relay cut mid-serialization), the obviously-incomplete
	// graphs the filtergraphs mechanism drops. Zero disables corruption;
	// it is a failure-injection knob for tests, not a 0.4.5 behaviour.
	CorruptPeriod int
	// SerializeOnce emulates CamFlow versions before 0.4.5, which only
	// serialized each node and edge the first time it was seen. Because
	// the whole-system graph persists across recording sessions, every
	// trial after the first comes out missing the structures already
	// serialized — which is exactly why repeat-run benchmarking needed
	// the re-serialization workaround the paper describes (Section 3.2).
	SerializeOnce bool
	// FilterGraphs mirrors the config.ini flag (default true for
	// CamFlow).
	FilterGraphs bool
}

// DefaultConfig is the paper's baseline configuration.
func DefaultConfig() Config {
	return Config{JitterPeriod: 3, FilterGraphs: true}
}

// Recorder is the CamFlow simulator.
type Recorder struct {
	cfg Config
	// bootID is stable for the lifetime of the recorder (one "machine
	// boot"), like CamFlow's whole-system graph identity.
	bootID string
	// mu guards serialized: recorders are shared across concurrent
	// Record calls (parallel trials, matrix and job cells).
	mu sync.Mutex
	// serialized tracks structure already emitted in earlier sessions
	// when SerializeOnce is set (keyed by a structural signature).
	serialized map[string]bool
}

var _ capture.Recorder = (*Recorder)(nil)
var _ capture.Complete = (*Recorder)(nil)

// New builds a CamFlow recorder.
func New(cfg Config) *Recorder {
	return &Recorder{cfg: cfg, bootID: "boot-cafe0425", serialized: make(map[string]bool)}
}

// Name implements capture.Recorder.
func (r *Recorder) Name() string { return "camflow" }

// DefaultTrials implements capture.Recorder: CamFlow needs extra trials
// to ride out serialization jitter (the paper's batch run used 11).
func (r *Recorder) DefaultTrials() int { return 5 }

// FilterGraphs implements capture.Recorder.
func (r *Recorder) FilterGraphs() bool { return r.cfg.FilterGraphs }

// Output is CamFlow's native PROV-JSON artifact.
type Output struct {
	JSON []byte
}

// Format implements capture.Native.
func (Output) Format() string { return "prov-json" }

// Record implements capture.Recorder.
func (r *Recorder) Record(ctx context.Context, prog benchprog.Program, v benchprog.Variant, trial int) (capture.Native, error) {
	tap, err := capture.RunTrial(ctx, "camflow", prog, v)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(trial)*2861 + int64(len(prog.Name))*937 + int64(v)*11))
	jitter := r.cfg.JitterPeriod > 0 && trial%r.cfg.JitterPeriod == r.cfg.JitterPeriod-1
	g := r.build(tap.LSMEvents, rng, jitter)
	if r.cfg.CorruptPeriod > 0 && trial%r.cfg.CorruptPeriod == r.cfg.CorruptPeriod-1 {
		dropMachine(g)
	}
	if r.cfg.SerializeOnce {
		g = r.dropAlreadySerialized(g)
	}
	data, err := provjson.Marshal(g)
	if err != nil {
		return nil, fmt.Errorf("camflow: serialize: %w", err)
	}
	return Output{JSON: data}, nil
}

// Transform implements capture.Recorder.
func (r *Recorder) Transform(n capture.Native) (*graph.Graph, error) {
	out, ok := n.(Output)
	if !ok {
		return nil, fmt.Errorf("camflow: transform: unexpected native type %T", n)
	}
	g, err := provjson.Unmarshal(out.JSON)
	if err != nil {
		return nil, fmt.Errorf("camflow: transform: %w", err)
	}
	return g, nil
}

// CompleteGraph implements capture.Complete: a CamFlow graph missing
// its machine agent was cut off mid-relay and should be filtered.
func (r *Recorder) CompleteGraph(g *graph.Graph) bool {
	for _, n := range g.Nodes() {
		if n.Label == "agent" {
			return true
		}
	}
	return false
}

type builder struct {
	r       *Recorder
	g       *graph.Graph
	rng     *rand.Rand
	machine graph.ElemID
	// task versions: pid -> current activity node
	task    map[int]graph.ElemID
	taskVer map[int]int
	// object versions: kernel inode id -> current entity node
	object    map[uint64]graph.ElemID
	objectVer map[uint64]int
	pathNode  map[string]graph.ElemID
}

func (r *Recorder) build(events []oskernel.LSMEvent, rng *rand.Rand, jitter bool) *graph.Graph {
	b := &builder{
		r:         r,
		g:         graph.New(),
		rng:       rng,
		task:      make(map[int]graph.ElemID),
		taskVer:   make(map[int]int),
		object:    make(map[uint64]graph.ElemID),
		objectVer: make(map[uint64]int),
		pathNode:  make(map[string]graph.ElemID),
	}
	b.machine = b.g.AddNode("agent", graph.Properties{
		"prov:type":  "machine",
		"cf:boot_id": r.bootID,
		"cf:date":    b.stamp(),
	})
	if jitter {
		// Relay timing occasionally re-serializes the boot entity.
		boot := b.g.AddNode("entity", graph.Properties{
			"prov:type": "boot",
			"cf:seq":    b.stamp(),
		})
		b.mustEdge(boot, b.machine, "wasAttributedTo", nil)
	}
	for _, ev := range events {
		b.handle(ev)
	}
	return b.g
}

func (b *builder) stamp() string {
	return strconv.FormatInt(1569326400000+int64(b.rng.Intn(1_000_000)), 10)
}

func (b *builder) mustEdge(src, tgt graph.ElemID, label string, extra graph.Properties) {
	props := graph.Properties{"cf:jiffies": b.stamp()}
	for k, v := range extra {
		props[k] = v
	}
	if _, err := b.g.AddEdge(src, tgt, label, props); err != nil {
		panic("camflow: edge: " + err.Error()) // endpoints created by builders
	}
}

// activity returns the current activity version for a pid.
func (b *builder) activity(ev oskernel.LSMEvent) graph.ElemID {
	if id, ok := b.task[ev.PID]; ok {
		return id
	}
	return b.newActivityVersion(ev, "task")
}

// newActivityVersion creates the next version of a task's activity node
// and links it to its predecessor and the machine agent.
func (b *builder) newActivityVersion(ev oskernel.LSMEvent, typ string) graph.ElemID {
	b.taskVer[ev.PID]++
	id := b.g.AddNode("activity", graph.Properties{
		"prov:type":  typ,
		"cf:pid":     strconv.Itoa(ev.PID),
		"cf:uid":     strconv.Itoa(ev.Cred.EUID),
		"cf:gid":     strconv.Itoa(ev.Cred.EGID),
		"cf:version": strconv.Itoa(b.taskVer[ev.PID]),
		"cf:date":    b.stamp(),
	})
	if prev, ok := b.task[ev.PID]; ok {
		b.mustEdge(id, prev, "wasInformedBy", graph.Properties{"cf:type": "version_activity"})
	} else {
		b.mustEdge(id, b.machine, "wasAssociatedWith", nil)
	}
	b.task[ev.PID] = id
	return id
}

// object returns the current entity version for an inode.
func (b *builder) objectEntity(ev oskernel.LSMEvent) graph.ElemID {
	if id, ok := b.object[ev.Inode]; ok {
		return id
	}
	return b.newObjectVersion(ev.Inode, ev.ObjType)
}

// newObjectVersion creates the next version of an inode's entity node.
func (b *builder) newObjectVersion(ino uint64, objType string) graph.ElemID {
	b.objectVer[ino]++
	id := b.g.AddNode("entity", graph.Properties{
		"prov:type":  objType,
		"cf:ino":     strconv.FormatUint(ino, 10),
		"cf:version": strconv.Itoa(b.objectVer[ino]),
		"cf:date":    b.stamp(),
	})
	if prev, ok := b.object[ino]; ok {
		b.mustEdge(id, prev, "wasDerivedFrom", graph.Properties{"cf:type": "version_entity"})
	}
	b.object[ino] = id
	return id
}

// pathEntity returns the path-name entity for a pathname, linked to the
// object it names (Figure 1b's separate path node).
func (b *builder) pathEntity(path string, obj graph.ElemID) graph.ElemID {
	if id, ok := b.pathNode[path]; ok {
		return id
	}
	id := b.g.AddNode("entity", graph.Properties{
		"prov:type":   "path",
		"cf:pathname": path,
		"cf:date":     b.stamp(),
	})
	b.pathNode[path] = id
	b.mustEdge(id, obj, "wasDerivedFrom", graph.Properties{"cf:type": "named"})
	return id
}

func (b *builder) handle(ev oskernel.LSMEvent) {
	if !ev.Allowed && !b.r.cfg.RecordDenied {
		return // 0.4.5 default: denied checks are not recorded
	}
	switch ev.Hook {
	case oskernel.HookFileOpen:
		act := b.activity(ev)
		obj := b.objectEntity(ev)
		b.pathEntity(ev.Path, obj)
		b.mustEdge(act, obj, "used", graph.Properties{"cf:type": "open"})
	case oskernel.HookFilePermission:
		act := b.activity(ev)
		if ev.Access == "write" {
			// Writes version the entity.
			obj := b.objectEntity(ev)
			fresh := b.newObjectVersion(ev.Inode, ev.ObjType)
			_ = obj
			b.mustEdge(fresh, act, "wasGeneratedBy", graph.Properties{"cf:type": "write"})
		} else {
			obj := b.objectEntity(ev)
			b.mustEdge(act, obj, "used", graph.Properties{"cf:type": "read"})
		}
	case oskernel.HookInodeCreate:
		act := b.activity(ev)
		obj := b.objectEntity(ev)
		b.pathEntity(ev.Path, obj)
		b.mustEdge(obj, act, "wasGeneratedBy", graph.Properties{"cf:type": "create"})
	case oskernel.HookInodeLink:
		act := b.activity(ev)
		obj := b.objectEntity(ev)
		p := b.pathEntity(ev.AuxPath, obj)
		b.mustEdge(p, act, "wasGeneratedBy", graph.Properties{"cf:type": "link"})
	case oskernel.HookInodeRename:
		// Figure 1b: a new path node is associated with the file
		// object; the old path does not appear in the result.
		act := b.activity(ev)
		obj := b.objectEntity(ev)
		p := b.pathEntity(ev.AuxPath, obj)
		b.mustEdge(p, act, "wasGeneratedBy", graph.Properties{"cf:type": "rename"})
	case oskernel.HookInodeUnlink:
		// Unlinking changes the inode's link count, so CamFlow versions
		// the entity in addition to recording the operation.
		act := b.activity(ev)
		obj := b.objectEntity(ev)
		b.mustEdge(act, obj, "used", graph.Properties{"cf:type": "unlink"})
		fresh := b.newObjectVersion(ev.Inode, ev.ObjType)
		b.mustEdge(fresh, act, "wasGeneratedBy", graph.Properties{"cf:type": "unlink"})
	case oskernel.HookInodeSetattr:
		act := b.activity(ev)
		b.objectEntity(ev)
		fresh := b.newObjectVersion(ev.Inode, ev.ObjType)
		b.mustEdge(fresh, act, "wasGeneratedBy", graph.Properties{
			"cf:type":   "setattr",
			"cf:detail": ev.Detail,
		})
	case oskernel.HookTaskFixSetuid, oskernel.HookTaskFixSetgid:
		fresh := b.newActivityVersion(ev, "task")
		if err := b.g.SetProp(fresh, "cf:setid", ev.Detail); err != nil {
			panic("camflow: setid: " + err.Error())
		}
	case oskernel.HookBprmCheck:
		act := b.activity(ev)
		obj := b.objectEntity(ev)
		b.pathEntity(ev.Path, obj)
		fresh := b.newActivityVersion(ev, "task")
		_ = act
		b.mustEdge(fresh, obj, "used", graph.Properties{"cf:type": "exec"})
	case oskernel.HookTaskCreate:
		parent := b.activity(ev)
		// The child gets its activity node on its first own hook; the
		// creation edge is recorded eagerly from the parent side with a
		// placeholder child version.
		childEv := ev
		childEv.PID = childPIDFromDetail(ev.Detail)
		if childEv.PID > 0 {
			child := b.newActivityVersion(childEv, "task")
			b.mustEdge(child, parent, "wasInformedBy", graph.Properties{"cf:type": "clone"})
		}
	case oskernel.HookTaskExit:
		b.newActivityVersion(ev, "task_end")
	case oskernel.HookPipeSplice:
		act := b.activity(ev)
		in := b.objectEntity(ev)
		fresh := b.newObjectVersion(ev.AuxInode, "pipe")
		b.mustEdge(act, in, "used", graph.Properties{"cf:type": "splice_in"})
		b.mustEdge(fresh, act, "wasGeneratedBy", graph.Properties{"cf:type": "splice_out"})
	case oskernel.HookInodeSymlink, oskernel.HookInodeMknod, oskernel.HookPipeCreate, oskernel.HookTaskKill:
		// Hooks exist in the kernel but CamFlow 0.4.5 does not attach
		// to them (NR cells in Table 2).
	}
}

// dropAlreadySerialized emulates the pre-0.4.5 serialize-once policy:
// nodes whose identity (type + ino/pid + version) was emitted by an
// earlier session vanish from this session's output, taking their
// incident edges with them.
func (r *Recorder) dropAlreadySerialized(g *graph.Graph) *graph.Graph {
	out := g.Clone()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range g.Nodes() {
		sig := n.Label + "|" + n.Props["prov:type"] + "|" + n.Props["cf:ino"] + "|" +
			n.Props["cf:pid"] + "|" + n.Props["cf:pathname"] + "|" + n.Props["cf:version"]
		if r.serialized[sig] {
			out.RemoveNode(n.ID)
		} else {
			r.serialized[sig] = true
		}
	}
	return out
}

// dropMachine removes the machine agent (and its incident edges),
// simulating a relay cut mid-serialization.
func dropMachine(g *graph.Graph) {
	for _, n := range g.Nodes() {
		if n.Label == "agent" {
			g.RemoveNode(n.ID)
			return
		}
	}
}

// childPIDFromDetail parses "fork pid=N" / "clone pid=N" detail strings.
func childPIDFromDetail(detail string) int {
	for i := 0; i+4 <= len(detail); i++ {
		if detail[i:i+4] == "pid=" {
			n, err := strconv.Atoi(detail[i+4:])
			if err != nil {
				return -1
			}
			return n
		}
	}
	return -1
}
