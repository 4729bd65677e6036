package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// dims is a quantity's unit as powers of seconds, bytes and joules.
type dims struct{ s, b, j int }

var (
	dimless     = dims{}
	seconds     = dims{s: 1}
	perSecond   = dims{s: -1}
	bytesUnit   = dims{b: 1}
	byteRate    = dims{s: -1, b: 1} // Gbps: bytes per second up to a constant
	joules      = dims{j: 1}
	joulePerB   = dims{b: -1, j: 1}
	watts       = dims{s: -1, j: 1}
	secPerJoule = dims{s: 1, j: -1} // energy_weight
)

// unitTable lists every numeric field of a type graph by unit, keyed
// "package.Type.Field".
type unitTable map[dims][]string

// scenarioUnits gives the unit of every numeric field reachable from
// Scenario. TestScalingRelations walks the type graph and fails on a
// numeric field missing here, so a new knob must say how it scales.
var scenarioUnits = unitTable{
	dimless: {
		"fleet.Scenario.Seed", "fleet.Class.Count", "fleet.Class.OffloadProb", "fleet.Class.QueueDepth",
		"fleet.PolicyConfig.MoveFraction", "fleet.PolicyConfig.Start", "fleet.GlobalConfig.MoveFraction",
		"fleet.ComputeConfig.Cores", "fl.Config.Rounds", "fl.ModelConfig.Layers", "fl.ModelConfig.Compress",
		"fleet.FleetEvent.Count", "fleet.FleetEvent.Factor", "fleet.FleetEvent.Multiplier", "fleet.FleetEvent.Cores",
	},
	seconds: {
		"fleet.Scenario.Duration", "fleet.Class.ComputeSeconds", "fleet.PlacementCost.ComputeSeconds",
		"fleet.PolicyConfig.IntervalSec", "fleet.PolicyConfig.HighSec", "fleet.PolicyConfig.LowSec",
		"fleet.GlobalConfig.EpochSec", "fleet.GlobalConfig.HighSec", "fleet.Tier.PropagationSec",
		"fleet.DownlinkConfig.PropagationSec", "fleet.ClassServiceSec.Sec", "fl.Config.ComputeSec",
		"fl.Config.JitterSec", "fleet.TelemetryConfig.WindowSec", "fleet.FleetEvent.Time", "fleet.FleetEvent.EverySec",
	},
	perSecond:   {"fleet.Class.FPS", "fleet.ComputeConfig.ServiceRateFPS"},
	byteRate:    {"fleet.UplinkConfig.Gbps", "fleet.DownlinkConfig.Gbps"},
	bytesUnit:   {"fleet.Class.FrameBytes", "fleet.PlacementCost.FrameBytes", "fl.Config.UpdateBytes", "fl.Config.ModelBytes", "fl.ModelConfig.BytesPerWeight"},
	joules:      {"fleet.Class.CaptureJ", "fleet.Class.ComputeJ", "fleet.Class.TxFixedJ", "fleet.Class.StoreJ", "fleet.PlacementCost.ComputeJ"},
	joulePerB:   {"fleet.Class.TxPerByteJ", "fleet.Tier.TxPerByteJ"},
	watts:       {"fleet.Class.HarvestW", "fleet.GlobalConfig.BudgetW"},
	secPerJoule: {"fleet.PolicyConfig.EnergyWeight"},
}

// resultUnits does the same for every numeric field of Result outside
// its Scenario.
var resultUnits = unitTable{
	dimless: {
		"fleet.Result.UplinkUtilization", "fleet.ClassStats.Cameras", "fleet.ClassStats.Captured",
		"fleet.ClassStats.Offloaded", "fleet.ClassStats.DroppedQueue", "fleet.ClassStats.DroppedEnergy",
		"fleet.ClassStats.DroppedOutage", "fleet.ClassStats.KeptInCamera", "fleet.ClassStats.Joined",
		"fleet.ClassStats.Left", "fleet.ClassStats.Rehomed", "fleet.ClassStats.Switches",
		"fleet.ClassStats.PlacementCounts", "fleet.TierStats.Depth", "fleet.TierStats.Transfers",
		"fleet.TierStats.Utilization", "fleet.TierStats.OutageDrops", "fleet.TierStats.DownTransfers",
		"fleet.TierStats.DownlinkUtilization", "fleet.ComputeStats.Cores", "fleet.ComputeStats.Frames",
		"fleet.ComputeStats.Utilization", "fleet.GlobalStats.Moves", "fleet.GlobalMove.Dir", "fleet.GlobalMove.Count",
		"fl.Stats.Rounds", "fl.Stats.Cameras", "fleet.Window.Index", "fleet.Window.TierUtil", "fleet.Window.TierCapFrac",
		"fleet.WindowClass.Offloaded", "fleet.WindowClass.DroppedQueue", "fleet.WindowClass.DroppedEnergy",
		"fleet.WindowClass.DroppedOutage", "fleet.DynamicsStats.Events", "fleet.DynamicsStats.Joined",
		"fleet.DynamicsStats.Left", "fleet.DynamicsStats.Rehomed", "fleet.DynamicsStats.DroppedOutage",
	},
	seconds: {
		"fleet.Result.SimEnd", "fleet.ClassStats.LatencyP50", "fleet.ClassStats.LatencyP95", "fleet.ClassStats.LatencyP99",
		"fleet.TierStats.PropagationSec", "fleet.TierStats.DowntimeSec", "fleet.TierStats.DownPropagationSec",
		"fleet.ComputeStats.BusySec", "fleet.ComputeStats.WaitP50", "fleet.ComputeStats.WaitP95",
		"fleet.GlobalEpoch.Time", "fl.Stats.RoundP50", "fl.Stats.RoundP95", "fl.Stats.DoneAt", "fl.Round.Start",
		"fl.Round.AggDone", "fl.Round.End", "fl.Round.Latency", "fl.Round.StragglerP95", "fleet.TimeSeries.WindowSec",
		"fleet.Window.Start", "fleet.Window.End", "fleet.Window.TierDownSec", "fleet.WindowClass.P50",
		"fleet.WindowClass.P95", "fleet.WindowClass.P99",
	},
	byteRate: {"fleet.TierStats.Gbps", "fleet.TierStats.DownGbps"},
	bytesUnit: {
		"fleet.TierStats.ServedBytes", "fleet.TierStats.FLUpBytes", "fleet.TierStats.DownServedBytes",
		"fl.Stats.UpdateBytes", "fl.Stats.ModelBytes", "fl.Stats.UpBytes", "fl.Stats.DownBytes",
		"fl.Stats.NaiveUpBytes", "fl.Stats.AggSavedBytes", "fl.Round.UpBytes", "fl.Round.DownBytes",
	},
	joules:    {"fleet.ClassStats.EnergyJ", "fleet.TierStats.ForwardJ", "fleet.EnergyStats.CameraJ", "fleet.EnergyStats.NetworkJ"},
	joulePerB: {"fleet.TierStats.TxPerByteJ"},
	watts:     {"fleet.EnergyStats.AvgPowerW", "fleet.EnergyStats.ProjectedW", "fleet.GlobalStats.BudgetW", "fleet.GlobalEpoch.BeforeW", "fleet.GlobalEpoch.AfterW"},
}

// byField inverts the tables: one unit per field.
func byField(tables ...unitTable) map[string]dims {
	m := map[string]dims{}
	for _, tab := range tables {
		for u, fields := range tab {
			for _, f := range fields {
				m[f] = u
			}
		}
	}
	return m
}

// numeric reports whether t, under any pointers, slices and arrays, is an
// integer or floating-point type.
func numeric(t reflect.Type) bool {
	for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice || t.Kind() == reflect.Array {
		t = t.Elem()
	}
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return true
	}
	return false
}

// fieldKey names field f of struct type t as the unit tables do.
func fieldKey(t reflect.Type, f reflect.StructField) string { return t.String() + "." + f.Name }

// checkUnits walks the type graph from roots, as fleetvet's scenariocopy
// does, and reports every numeric field without a unit and every unit
// naming no field it reached.
func checkUnits(t *testing.T, units map[string]dims, roots ...reflect.Type) {
	t.Helper()
	seen, used := map[reflect.Type]bool{}, map[string]bool{}
	var walk func(reflect.Type)
	walk = func(ty reflect.Type) {
		for ty.Kind() == reflect.Pointer || ty.Kind() == reflect.Slice || ty.Kind() == reflect.Array {
			ty = ty.Elem()
		}
		if ty.Kind() != reflect.Struct || seen[ty] {
			return
		}
		seen[ty] = true
		for i := 0; i < ty.NumField(); i++ {
			f := ty.Field(i)
			if numeric(f.Type) {
				key := fieldKey(ty, f)
				if _, ok := units[key]; !ok {
					t.Errorf("numeric field %s has no unit: add it to the unit table", key)
				}
				used[key] = true
				continue
			}
			walk(f.Type)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	for key := range units {
		if !used[key] {
			t.Errorf("unit table names %s, which the type graph does not hold", key)
		}
	}
}

// scaling multiplies a quantity of unit d by time^d.s × bytes^d.b ×
// energy^d.j. Each factor is a power of two, so the product is exact.
type scaling struct {
	name                string
	time, bytes, energy float64
	units               map[string]dims
}

func (sc scaling) factor(d dims) float64 {
	return math.Pow(sc.time, float64(d.s)) * math.Pow(sc.bytes, float64(d.b)) * math.Pow(sc.energy, float64(d.j))
}

// apply returns a deep copy of v, a value of unit d, with every number in
// it scaled by its unit's factor: a struct field's unit is the one
// sc.units gives its "package.Type.Field" key, and a slice's or a
// pointer's elements take the unit of the field holding them.
func (sc scaling) apply(v reflect.Value, d dims) reflect.Value {
	switch v.Kind() {
	case reflect.Float64:
		out := reflect.New(v.Type()).Elem()
		out.SetFloat(v.Float() * sc.factor(d))
		return out
	case reflect.Int, reflect.Int64:
		out := reflect.New(v.Type()).Elem()
		x := float64(v.Int()) * sc.factor(d)
		if x != math.Trunc(x) {
			panic(fmt.Sprintf("scaling %v by %v leaves no integer", v.Int(), sc.factor(d)))
		}
		out.SetInt(int64(x))
		return out
	case reflect.Pointer:
		if v.IsNil() {
			return reflect.Zero(v.Type())
		}
		out := reflect.New(v.Type().Elem())
		out.Elem().Set(sc.apply(v.Elem(), d))
		return out
	case reflect.Slice:
		if v.IsNil() {
			return reflect.Zero(v.Type())
		}
		out := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		for i := 0; i < v.Len(); i++ {
			out.Index(i).Set(sc.apply(v.Index(i), d))
		}
		return out
	case reflect.Struct:
		out := reflect.New(v.Type()).Elem()
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			out.Field(i).Set(sc.apply(v.Field(i), sc.units[fieldKey(v.Type(), f)]))
		}
		return out
	case reflect.String, reflect.Bool:
		return v
	}
	panic(fmt.Sprintf("scaling: unexpected kind %s", v.Kind()))
}

// firstDiff names the first path at which a and b differ, or "".
func firstDiff(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil on one side"
			}
			return ""
		}
		return firstDiff(a.Elem(), b.Elem(), path)
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := firstDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := firstDiff(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	default:
		if !reflect.DeepEqual(a.Interface(), b.Interface()) {
			return fmt.Sprintf("%s: want %v, got %v", path, a.Interface(), b.Interface())
		}
	}
	return ""
}

// TestScalingRelations checks the engine's units bit for bit. Scaling
// every time in a scenario by a power of two, and every rate inversely,
// must scale every time-valued output by the same power and leave every
// count, joule and utilization as it was, because multiplying by a power
// of two commutes with correct rounding. Likewise, scaling every payload,
// capacity and blob size while halving the per-byte joules must leave
// latencies, counts and energy as they were and scale the bytes served,
// and scaling every joule and watt, with energy_weight inversely, must
// scale every joule and watt reported and leave the rest. One missed
// unit anywhere, a constant with a unit hidden in a formula or a time
// left unscaled, breaks the relation for every run that reaches it,
// without any tolerance. What it cannot catch is a wrong formula with the
// right units.
//
// The scenarios are the 23 camsim golden variants at seeds 1 to 4, each
// with exact statistics and again with streaming telemetry in 0.25 s
// windows, the random scenarios TestRandomScenarioInvariants draws from,
// periodic and Poisson classes under rate steps and churn, and every
// fuzz seed that parses, shrunk as FuzzScenarioRun shrinks it. Each is
// normalized first: Normalize's defaults are unscaled constants.
// FuzzScenarioRun itself does not check the relations: halving a
// subnormal input is inexact, so a mutated input could break them with
// no fault in the engine.
func TestScalingRelations(t *testing.T) {
	scenUnits, resUnits := byField(scenarioUnits), byField(scenarioUnits, resultUnits)
	checkUnits(t, scenUnits, reflect.TypeOf(Scenario{}))
	checkUnits(t, resUnits, reflect.TypeOf(Result{}))
	if t.Failed() {
		return
	}
	relations := []scaling{
		{name: "time ×2", time: 2, bytes: 1, energy: 1},
		{name: "time ×½", time: 0.5, bytes: 1, energy: 1},
		{name: "bytes ×2", time: 1, bytes: 2, energy: 1},
		{name: "energy ×2", time: 1, bytes: 1, energy: 2},
	}

	var scs []Scenario
	for seed := int64(1); seed <= 4; seed++ {
		vs, err := goldenVariants(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vs {
			v.sc.Name = fmt.Sprintf("%s@%d", v.name, seed)
			windowed := v.sc
			windowed.Name += "/windowed"
			windowed.Telemetry = &TelemetryConfig{Streaming: true, WindowSec: 0.25}
			scs = append(scs, v.sc, windowed)
		}
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		scs = append(scs, randomScenario(rng))
	}
	steps := periodicChurn()
	steps.Name = "periodic-churn-steps"
	steps.Dynamics.Events = append(steps.Dynamics.Events,
		FleetEvent{Time: 2.5, Kind: DynFPSProfile, Class: "bg", Multiplier: 1.3},
		FleetEvent{Time: 3.25, Kind: DynFPSProfile, Class: "solar", Multiplier: 0.7},
		FleetEvent{Time: 4.5, Kind: DynFPSProfile, Class: "bg", Multiplier: 0.35},
		FleetEvent{Time: 6, Kind: DynFPSProfile, Class: "bg", Multiplier: 1e-300},
		FleetEvent{Time: 6.5, Kind: DynFPSProfile, Class: "bg", Multiplier: 2.2},
	)
	scs = append(scs, steps)
	for i, s := range fuzzSeeds {
		sc, err := ParseScenario([]byte(s.json))
		if err != nil {
			continue
		}
		shrinkForRun(&sc)
		sc.Name = fmt.Sprintf("fuzz seed %d", i)
		scs = append(scs, sc)
	}

	for _, base := range scs {
		base = base.clone()
		base.Normalize()
		want, err := Run(base)
		if err != nil {
			t.Fatalf("%s: %v", base.Name, err)
		}
		for _, rel := range relations {
			rel.units = scenUnits
			sc := rel.apply(reflect.ValueOf(base), dimless).Interface().(Scenario)
			got, err := Run(sc)
			if err != nil {
				t.Fatalf("%s, %s: %v", base.Name, rel.name, err)
			}
			rel.units = resUnits
			scaled := rel.apply(reflect.ValueOf(*want), dimless).Interface().(Result)
			if d := firstDiff(reflect.ValueOf(scaled), reflect.ValueOf(*got), "Result"); d != "" {
				t.Errorf("%s, %s: %s", base.Name, rel.name, d)
			}
		}
	}
}
