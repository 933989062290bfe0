package verifier

import "repro/internal/isa"

// CtxFieldKind classifies what a context field load yields.
type CtxFieldKind int

// Context field kinds.
const (
	CtxScalar CtxFieldKind = iota
	// CtxPktData yields PTR_TO_PACKET.
	CtxPktData
	// CtxPktEnd yields PTR_TO_PACKET_END.
	CtxPktEnd
	// CtxBTFTask yields a trusted PTR_TO_BTF_ID to task_struct whose
	// runtime value is a real task.
	CtxBTFTask
	// CtxBTFTaskNull yields a trusted PTR_TO_BTF_ID to task_struct
	// whose runtime value is NULL — trusted pointers are not marked
	// maybe_null by the verifier even though they can be null, the
	// asymmetry behind the paper's Bug #1.
	CtxBTFTaskNull
)

// CtxField describes one accessible field of a program context.
type CtxField struct {
	Name     string
	Off      int32
	Size     int32
	Kind     CtxFieldKind
	Writable bool
}

// CtxLayout is the per-program-type context ABI of the simulated kernel.
// Unlike the real kernel's __sk_buff (where pointer fields are u32 and
// rewritten by convert_ctx_access), this simulator lays pointers out as
// native u64 fields, so no access conversion is needed.
type CtxLayout struct {
	Fields []CtxField
	Size   int32
}

// FieldAt returns the field exactly covering [off, off+size), or nil.
// Context loads must not straddle fields, and pointer fields require
// full-width loads.
func (l *CtxLayout) FieldAt(off, size int32) *CtxField {
	for i := range l.Fields {
		f := &l.Fields[i]
		if off < f.Off || off+size > f.Off+f.Size {
			continue
		}
		if f.Kind != CtxScalar && (off != f.Off || size != f.Size) {
			return nil // partial pointer loads are invalid
		}
		return f
	}
	return nil
}

var ctxLayouts = map[isa.ProgramType]*CtxLayout{
	isa.ProgTypeSocketFilter: skbLayout(),
	isa.ProgTypeSchedCLS:     skbLayout(),
	isa.ProgTypeXDP: {
		Size: 32,
		Fields: []CtxField{
			{Name: "data", Off: 0, Size: 8, Kind: CtxPktData},
			{Name: "data_end", Off: 8, Size: 8, Kind: CtxPktEnd},
			{Name: "data_meta", Off: 16, Size: 8, Kind: CtxScalar},
			{Name: "ingress_ifindex", Off: 24, Size: 4, Kind: CtxScalar},
			{Name: "rx_queue_index", Off: 28, Size: 4, Kind: CtxScalar},
		},
	},
	isa.ProgTypeKprobe:    ptRegsLayout(),
	isa.ProgTypePerfEvent: ptRegsLayout(),
	isa.ProgTypeTracepoint: {
		Size: 64,
		Fields: []CtxField{
			{Name: "arg0", Off: 0, Size: 8, Kind: CtxScalar},
			{Name: "arg1", Off: 8, Size: 8, Kind: CtxScalar},
			{Name: "arg2", Off: 16, Size: 8, Kind: CtxScalar},
			{Name: "arg3", Off: 24, Size: 8, Kind: CtxScalar},
			{Name: "arg4", Off: 32, Size: 8, Kind: CtxScalar},
			{Name: "arg5", Off: 40, Size: 8, Kind: CtxScalar},
			{Name: "arg6", Off: 48, Size: 8, Kind: CtxScalar},
			{Name: "arg7", Off: 56, Size: 8, Kind: CtxScalar},
		},
	},
	isa.ProgTypeRawTracepoint: {
		Size: 32,
		Fields: []CtxField{
			// arg0: the task that hit the tracepoint — a real object.
			{Name: "task", Off: 0, Size: 8, Kind: CtxBTFTask},
			// arg1: the "next" task — NULL at the hooks this simulator
			// fires, yet still typed as trusted PTR_TO_BTF_ID.
			{Name: "next_task", Off: 8, Size: 8, Kind: CtxBTFTaskNull},
			{Name: "arg2", Off: 16, Size: 8, Kind: CtxScalar},
			{Name: "arg3", Off: 24, Size: 8, Kind: CtxScalar},
		},
	},
}

func skbLayout() *CtxLayout {
	return &CtxLayout{
		Size: 64,
		Fields: []CtxField{
			{Name: "len", Off: 0, Size: 4, Kind: CtxScalar},
			{Name: "pkt_type", Off: 4, Size: 4, Kind: CtxScalar},
			{Name: "mark", Off: 8, Size: 4, Kind: CtxScalar, Writable: true},
			{Name: "queue_mapping", Off: 12, Size: 4, Kind: CtxScalar},
			{Name: "protocol", Off: 16, Size: 4, Kind: CtxScalar},
			{Name: "vlan_present", Off: 20, Size: 4, Kind: CtxScalar},
			{Name: "data", Off: 24, Size: 8, Kind: CtxPktData},
			{Name: "data_end", Off: 32, Size: 8, Kind: CtxPktEnd},
			{Name: "cb0", Off: 40, Size: 4, Kind: CtxScalar, Writable: true},
			{Name: "cb1", Off: 44, Size: 4, Kind: CtxScalar, Writable: true},
			{Name: "cb2", Off: 48, Size: 4, Kind: CtxScalar, Writable: true},
			{Name: "cb3", Off: 52, Size: 4, Kind: CtxScalar, Writable: true},
			{Name: "cb4", Off: 56, Size: 4, Kind: CtxScalar, Writable: true},
			{Name: "priority", Off: 60, Size: 4, Kind: CtxScalar, Writable: true},
		},
	}
}

func ptRegsLayout() *CtxLayout {
	l := &CtxLayout{Size: 168}
	names := []string{
		"r15", "r14", "r13", "r12", "bp", "bx", "r11", "r10", "r9", "r8",
		"ax", "cx", "dx", "si", "di", "orig_ax", "ip", "cs", "flags", "sp", "ss",
	}
	for i, n := range names {
		l.Fields = append(l.Fields, CtxField{Name: n, Off: int32(i * 8), Size: 8, Kind: CtxScalar})
	}
	return l
}

// LayoutFor returns the context layout of a program type, or nil if the
// type has no accessible context.
func LayoutFor(t isa.ProgramType) *CtxLayout { return ctxLayouts[t] }
