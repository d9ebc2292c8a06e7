package corpusgen

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"

	"faultstudy/internal/apps/cache"
	"faultstudy/internal/apps/desktop"
	"faultstudy/internal/apps/httpd"
	"faultstudy/internal/apps/sqldb"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/parallel"
	"faultstudy/internal/report"
	"faultstudy/internal/taxonomy"
)

// GenFault is one sampled fault. Every field is a pure function of
// (spec, seed, Index).
type GenFault struct {
	// Index is the fault's position in the population.
	Index int `json:"index"`
	// ID is the stable identifier, "gen/<index>".
	ID string `json:"id"`
	// App is the application the fault lives in.
	App taxonomy.Application `json:"app"`
	// AppName is the mechanism namespace (httpd, sqldb, desktop, cache).
	AppName string `json:"appName"`
	// Class is the sampled fault class; the mechanism's trigger implies it.
	Class taxonomy.FaultClass `json:"class"`
	// Trigger is the mechanism's environmental trigger kind.
	Trigger taxonomy.TriggerKind `json:"trigger"`
	// Defect is the sampled defect type (memory, logic, interface,
	// concurrency, resource).
	Defect string `json:"defect"`
	// Mechanism is the runnable seeded-bug key drawn from the fault's
	// (app, class) pool.
	Mechanism string `json:"mechanism"`
	// Lifetime is the sampled bug lifetime.
	Lifetime time.Duration `json:"lifetime"`
	// LifetimeText is the raw distribution value the lifetime was drawn as
	// (the goodness-of-fit bucket).
	LifetimeText string `json:"lifetimeText"`
	// Severity is the tracker-style severity annotation.
	Severity taxonomy.Severity `json:"severity"`
	// Symptom is the tracker-style failure symptom annotation.
	Symptom taxonomy.Symptom `json:"symptom"`
}

// Episode is one sampled two-fault episode: a second fault striking the same
// application while the primary fault's episode is open (for example, an EDT
// latency spike during an EDN descriptor leak).
type Episode struct {
	// Index is the episode's position.
	Index int `json:"index"`
	// Primary is the population index of the primary fault.
	Primary int `json:"primary"`
	// PrimaryMechanism is the primary fault's mechanism key.
	PrimaryMechanism string `json:"primaryMechanism"`
	// Secondary is the second mechanism, same application, never the
	// primary's own key.
	Secondary string `json:"secondary"`
	// SecondaryClass is the second fault's sampled class.
	SecondaryClass taxonomy.FaultClass `json:"secondaryClass"`
	// Overlap is the co-occurrence mode: "concurrent" (both active at once)
	// or "cascade" (the second strikes Gap after the first).
	Overlap string `json:"overlap"`
	// Gap is the cascade inter-fault gap (meaningful only for cascade).
	Gap time.Duration `json:"gap"`
	// GapText is the raw distribution value the gap was drawn as (the
	// goodness-of-fit bucket).
	GapText string `json:"gapText"`
}

// Registry returns the extended mechanism catalogue the generator samples
// from: the paper's three applications plus the cache extension archetype.
func Registry() *faultinject.Registry {
	r := faultinject.NewRegistry()
	httpd.RegisterMechanisms(r)
	sqldb.RegisterMechanisms(r)
	desktop.RegisterMechanisms(r)
	cache.RegisterMechanisms(r)
	return r
}

// Corpus is a generative fault population: a spec, a root seed, and the
// mechanism pools sampling draws from. Every accessor is safe for concurrent
// use; FaultAt and EpisodeAt are pure functions of their index.
type Corpus struct {
	spec  *Spec
	seed  int64
	mechs map[string]faultinject.Mechanism
	// pools[appName][class] lists mechanism keys in sorted order; all[appName]
	// is the app's full sorted pool.
	pools map[string]map[taxonomy.FaultClass][]string
	all   map[string][]string
}

// New builds a corpus over the spec with the given root seed.
func New(spec *Spec, seed int64) *Corpus {
	reg := Registry()
	c := &Corpus{
		spec:  spec,
		seed:  seed,
		mechs: make(map[string]faultinject.Mechanism),
		pools: make(map[string]map[taxonomy.FaultClass][]string, len(appValues)),
		all:   make(map[string][]string, len(appValues)),
	}
	for name, app := range appValues {
		byClass := make(map[taxonomy.FaultClass][]string, 3)
		for _, m := range reg.ByApp(app) {
			c.mechs[m.Key] = m
			byClass[m.Class()] = append(byClass[m.Class()], m.Key)
			c.all[name] = append(c.all[name], m.Key)
		}
		for _, class := range taxonomy.Classes() {
			if len(byClass[class]) == 0 {
				// Every registered application ships mechanisms in all three
				// classes; a hole here is a registration bug, not data.
				panic(fmt.Sprintf("corpusgen: app %s has no %s mechanisms", name, class))
			}
		}
		c.pools[name] = byClass
	}
	return c
}

// Spec returns the corpus spec.
func (c *Corpus) Spec() *Spec { return c.spec }

// Derived-seed stream layout: fault i draws from index i, episode j from
// Faults+j, and the PR site's duplicate counts from Faults+Episodes onward —
// disjoint streams off one root seed.
func (c *Corpus) episodeStream(j int) int64 {
	return parallel.Derive(c.seed, uint64(c.spec.Faults)+uint64(j))
}

// FaultAt samples fault i: class, application, defect type, and lifetime
// are independent draws from the spec's distributions; the runnable
// mechanism is drawn uniformly from the (application, class) pool, so the
// mechanism's trigger always implies the sampled class.
func (c *Corpus) FaultAt(i int) *GenFault {
	rng := rand.New(rand.NewSource(parallel.Derive(c.seed, uint64(i))))
	classKey := c.spec.Class.Sample(rng.Float64())
	class := classValues[classKey]
	appName := c.spec.App.Sample(rng.Float64())
	defect := c.spec.Defect.Sample(rng.Float64())
	lifeText := c.spec.Lifetime.Sample(rng.Float64())
	life, err := parseSpan(lifeText)
	if err != nil {
		panic(fmt.Sprintf("corpusgen: spec-validated span %q failed: %v", lifeText, err))
	}
	pool := c.pools[appName][class]
	mech := pool[rng.Intn(len(pool))]
	severity := taxonomy.SeveritySerious
	if rng.Float64() < 0.3 {
		severity = taxonomy.SeverityCritical
	}
	symptom := taxonomy.SymptomCrash
	switch u := rng.Float64(); {
	case u >= 0.85:
		symptom = taxonomy.SymptomHang
	case u >= 0.60:
		symptom = taxonomy.SymptomError
	}
	return &GenFault{
		Index:        i,
		ID:           fmt.Sprintf("gen/%06d", i),
		App:          appValues[appName],
		AppName:      appName,
		Class:        class,
		Trigger:      c.mechs[mech].Trigger,
		Defect:       defect,
		Mechanism:    mech,
		Lifetime:     life,
		LifetimeText: lifeText,
		Severity:     severity,
		Symptom:      symptom,
	}
}

// EpisodeAt samples episode j: a uniform primary fault, an overlap mode and
// gap from the spec, and a second mechanism drawn from the primary's
// application at an independently sampled class — preferring a different
// mechanism of that class, falling back to any other mechanism of the app
// when the sampled class pool holds only the primary itself.
func (c *Corpus) EpisodeAt(j int) *Episode {
	rng := rand.New(rand.NewSource(c.episodeStream(j)))
	primary := rng.Intn(c.spec.Faults)
	pf := c.FaultAt(primary)
	overlap := c.spec.Overlap.Sample(rng.Float64())
	gapText := c.spec.Gap.Sample(rng.Float64())
	gap, err := parseSpan(gapText)
	if err != nil {
		panic(fmt.Sprintf("corpusgen: spec-validated span %q failed: %v", gapText, err))
	}
	secClass := classValues[c.spec.Class.Sample(rng.Float64())]
	cands := exclude(c.pools[pf.AppName][secClass], pf.Mechanism)
	if len(cands) == 0 {
		cands = exclude(c.all[pf.AppName], pf.Mechanism)
	}
	sec := cands[rng.Intn(len(cands))]
	return &Episode{
		Index:            j,
		Primary:          primary,
		PrimaryMechanism: pf.Mechanism,
		Secondary:        sec,
		SecondaryClass:   c.mechs[sec].Class(),
		Overlap:          overlap,
		Gap:              gap,
		GapText:          gapText,
	}
}

// exclude returns pool without key, preserving order.
func exclude(pool []string, key string) []string {
	out := make([]string, 0, len(pool))
	for _, k := range pool {
		if k != key {
			out = append(out, k)
		}
	}
	return out
}

// Faults samples the whole population on a pool of workers (0 or negative
// means one per processor), in population order regardless of worker count.
func (c *Corpus) Faults(workers int) ([]*GenFault, error) {
	return parallel.MapOrdered(workers, c.spec.Faults, func(i int) (*GenFault, error) {
		return c.FaultAt(i), nil
	})
}

// Episodes samples every episode, in order, on a pool of workers.
func (c *Corpus) Episodes(workers int) ([]*Episode, error) {
	return parallel.MapOrdered(workers, c.spec.Episodes, func(j int) (*Episode, error) {
		return c.EpisodeAt(j), nil
	})
}

// WriteJSONL writes the population — faults, then episodes — as one JSON
// line each. The stream is byte-identical at every worker count.
func (c *Corpus) WriteJSONL(w io.Writer, workers int) error {
	faults, err := c.Faults(workers)
	if err != nil {
		return err
	}
	episodes, err := c.Episodes(workers)
	if err != nil {
		return err
	}
	for _, f := range faults {
		if err := writeJSONLine(w, f); err != nil {
			return err
		}
	}
	for _, e := range episodes {
		if err := writeJSONLine(w, e); err != nil {
			return err
		}
	}
	return nil
}

// writeJSONLine marshals one value as a JSONL record.
func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("corpusgen: marshal: %w", err)
	}
	if _, err := w.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("corpusgen: write: %w", err)
	}
	return nil
}

// Report renders the fault as the normalized bug report the classifier
// grades: the defect prose describes the code-level bug, and the
// how-to-repeat carries either the deterministic every-time language (EI) or
// the mechanism trigger's environmental language (EDN/EDT), mirroring how
// the study's reporters actually wrote.
func (f *GenFault) Report() *report.Report {
	return &report.Report{
		ID:          f.ID,
		App:         f.App,
		Synopsis:    f.synopsis(),
		Description: f.description(),
		HowToRepeat: f.howToRepeat(),
		Severity:    f.Severity,
		Symptom:     f.Symptom,
		Filed:       filedDate(f.Index),
		Production:  true,
	}
}

// filedDate spreads filing dates deterministically over the study window.
func filedDate(i int) time.Time {
	base := time.Date(1998, time.March, 1, 0, 0, 0, 0, time.UTC)
	return base.AddDate(0, 0, i%900)
}
