package taxonomy

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
)

func TestFaultClassString(t *testing.T) {
	tests := []struct {
		class FaultClass
		want  string
		short string
	}{
		{ClassUnknown, "unknown", "?"},
		{ClassEnvIndependent, "environment-independent", "EI"},
		{ClassEnvDependentNonTransient, "environment-dependent-nontransient", "EDN"},
		{ClassEnvDependentTransient, "environment-dependent-transient", "EDT"},
		{FaultClass(99), "FaultClass(99)", "?"},
	}
	for _, tt := range tests {
		if got := tt.class.String(); got != tt.want {
			t.Errorf("FaultClass(%d).String() = %q, want %q", int(tt.class), got, tt.want)
		}
		if got := tt.class.Short(); got != tt.short {
			t.Errorf("FaultClass(%d).Short() = %q, want %q", int(tt.class), got, tt.short)
		}
	}
}

func TestParseClassRoundTrip(t *testing.T) {
	for _, c := range Classes() {
		got, err := ParseClass(c.String())
		if err != nil {
			t.Fatalf("ParseClass(%q): %v", c.String(), err)
		}
		if got != c {
			t.Errorf("ParseClass(%q) = %v, want %v", c.String(), got, c)
		}
	}
}

func TestParseClassAliases(t *testing.T) {
	tests := []struct {
		in   string
		want FaultClass
	}{
		{"EI", ClassEnvIndependent},
		{"edn", ClassEnvDependentNonTransient},
		{"EDT", ClassEnvDependentTransient},
		{"Heisenbug", ClassEnvDependentTransient},
		{"bohrbug", ClassEnvIndependent},
		{"  transient  ", ClassEnvDependentTransient},
		{"", ClassUnknown},
	}
	for _, tt := range tests {
		got, err := ParseClass(tt.in)
		if err != nil {
			t.Errorf("ParseClass(%q): %v", tt.in, err)
			continue
		}
		if got != tt.want {
			t.Errorf("ParseClass(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestParseClassError(t *testing.T) {
	if _, err := ParseClass("bogus"); err == nil {
		t.Error("ParseClass(bogus) should fail")
	}
}

func TestClassValidity(t *testing.T) {
	if ClassUnknown.Valid() {
		t.Error("ClassUnknown should not be valid")
	}
	for _, c := range Classes() {
		if !c.Valid() {
			t.Errorf("%v should be valid", c)
		}
	}
}

func TestTriggerRoundTrip(t *testing.T) {
	kinds := []TriggerKind{
		TriggerWorkloadOnly, TriggerResourceLeak, TriggerFDExhaustion,
		TriggerDiskFull, TriggerFileSizeLimit, TriggerNetworkResource,
		TriggerHostConfig, TriggerDNSFailure, TriggerProcessTable,
		TriggerRequestTiming, TriggerRace, TriggerSlowNetwork, TriggerEntropy,
	}
	for _, k := range kinds {
		got, err := ParseTrigger(k.String())
		if err != nil {
			t.Fatalf("ParseTrigger(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("ParseTrigger(%q) = %v, want %v", k.String(), got, k)
		}
	}
}

func TestTriggerDefaultClass(t *testing.T) {
	tests := []struct {
		kind TriggerKind
		want FaultClass
	}{
		{TriggerWorkloadOnly, ClassEnvIndependent},
		{TriggerResourceLeak, ClassEnvDependentNonTransient},
		{TriggerFDExhaustion, ClassEnvDependentNonTransient},
		{TriggerDiskFull, ClassEnvDependentNonTransient},
		{TriggerFileSizeLimit, ClassEnvDependentNonTransient},
		{TriggerNetworkResource, ClassEnvDependentNonTransient},
		{TriggerHostConfig, ClassEnvDependentNonTransient},
		{TriggerDNSFailure, ClassEnvDependentTransient},
		{TriggerProcessTable, ClassEnvDependentTransient},
		{TriggerRequestTiming, ClassEnvDependentTransient},
		{TriggerRace, ClassEnvDependentTransient},
		{TriggerSlowNetwork, ClassEnvDependentTransient},
		{TriggerEntropy, ClassEnvDependentTransient},
		{TriggerUnknownKind, ClassUnknown},
	}
	for _, tt := range tests {
		if got := tt.kind.DefaultClass(); got != tt.want {
			t.Errorf("%v.DefaultClass() = %v, want %v", tt.kind, got, tt.want)
		}
	}
}

func TestSeverityQualifies(t *testing.T) {
	tests := []struct {
		sev  Severity
		want bool
	}{
		{SeverityUnknown, false},
		{SeverityWishlist, false},
		{SeverityMinor, false},
		{SeverityNormal, false},
		{SeveritySerious, true},
		{SeverityCritical, true},
	}
	for _, tt := range tests {
		if got := tt.sev.Qualifies(); got != tt.want {
			t.Errorf("%v.Qualifies() = %v, want %v", tt.sev, got, tt.want)
		}
	}
}

func TestParseSeveritySpellings(t *testing.T) {
	tests := []struct {
		in   string
		want Severity
	}{
		{"grave", SeverityCritical},
		{"critical", SeverityCritical},
		{"serious", SeveritySerious},
		{"important", SeveritySerious},
		{"non-critical", SeverityNormal},
		{"wishlist", SeverityWishlist},
		{"trivial", SeverityMinor},
	}
	for _, tt := range tests {
		got, err := ParseSeverity(tt.in)
		if err != nil {
			t.Errorf("ParseSeverity(%q): %v", tt.in, err)
			continue
		}
		if got != tt.want {
			t.Errorf("ParseSeverity(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
	if _, err := ParseSeverity("spicy"); err == nil {
		t.Error("ParseSeverity(spicy) should fail")
	}
}

func TestSymptomHighImpact(t *testing.T) {
	high := []Symptom{SymptomCrash, SymptomError, SymptomHang, SymptomSecurity}
	for _, s := range high {
		if !s.HighImpact() {
			t.Errorf("%v should be high impact", s)
		}
	}
	if SymptomUnknown.HighImpact() {
		t.Error("SymptomUnknown should not be high impact")
	}
}

func TestSymptomRoundTrip(t *testing.T) {
	for _, s := range []Symptom{SymptomCrash, SymptomError, SymptomHang, SymptomSecurity} {
		got, err := ParseSymptom(s.String())
		if err != nil {
			t.Fatalf("ParseSymptom(%q): %v", s.String(), err)
		}
		if got != s {
			t.Errorf("round trip %v != %v", got, s)
		}
	}
}

func TestParseApplication(t *testing.T) {
	tests := []struct {
		in   string
		want Application
	}{
		{"apache", AppApache},
		{"httpd", AppApache},
		{"GNOME", AppGnome},
		{"mysqld", AppMySQL},
	}
	for _, tt := range tests {
		got, err := ParseApplication(tt.in)
		if err != nil {
			t.Errorf("ParseApplication(%q): %v", tt.in, err)
			continue
		}
		if got != tt.want {
			t.Errorf("ParseApplication(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
	if _, err := ParseApplication("notepad"); err == nil {
		t.Error("ParseApplication(notepad) should fail")
	}
}

// Property: every trigger kind maps to a class, and every non-unknown trigger
// maps to a valid class. Exercised with testing/quick over the valid range.
func TestTriggerClassTotalProperty(t *testing.T) {
	f := func(raw uint8) bool {
		k := TriggerKind(int(raw) % (int(TriggerEntropy) + 1))
		c := k.DefaultClass()
		if k == TriggerUnknownKind {
			return c == ClassUnknown
		}
		return c.Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: String/ParseClass round trips for all valid classes regardless of
// surrounding whitespace.
func TestParseClassWhitespaceProperty(t *testing.T) {
	f := func(pre, post uint8) bool {
		pad := func(n uint8) string {
			s := ""
			for i := uint8(0); i < n%4; i++ {
				s += " "
			}
			return s
		}
		for _, c := range Classes() {
			got, err := ParseClass(pad(pre) + c.String() + pad(post))
			if err != nil || got != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllStringersCovered(t *testing.T) {
	// Severity strings.
	for _, s := range []Severity{SeverityUnknown, SeverityWishlist, SeverityMinor,
		SeverityNormal, SeveritySerious, SeverityCritical} {
		if s.String() == "" {
			t.Errorf("empty severity string for %d", int(s))
		}
	}
	if Severity(42).String() != "Severity(42)" {
		t.Error("unknown severity string")
	}
	// Symptom strings.
	for _, s := range []Symptom{SymptomUnknown, SymptomCrash, SymptomError, SymptomHang, SymptomSecurity} {
		if s.String() == "" {
			t.Errorf("empty symptom string for %d", int(s))
		}
	}
	if Symptom(42).String() != "Symptom(42)" {
		t.Error("unknown symptom string")
	}
	// Trigger strings.
	if TriggerKind(42).String() != "TriggerKind(42)" {
		t.Error("unknown trigger string")
	}
	// Application strings.
	if Application(42).String() != "Application(42)" {
		t.Error("unknown application string")
	}
	if _, err := ParseTrigger("nope"); err == nil {
		t.Error("ParseTrigger(nope) should fail")
	}
	if _, err := ParseSymptom("nope"); err == nil {
		t.Error("ParseSymptom(nope) should fail")
	}
}

func TestApplicationsList(t *testing.T) {
	apps := Applications()
	if len(apps) != 3 || apps[0] != AppApache || apps[1] != AppGnome || apps[2] != AppMySQL {
		t.Errorf("Applications = %v", apps)
	}
}

func TestJSONRoundTrips(t *testing.T) {
	type doc struct {
		Class    FaultClass  `json:"class"`
		Trigger  TriggerKind `json:"trigger"`
		Symptom  Symptom     `json:"symptom"`
		Severity Severity    `json:"severity"`
		App      Application `json:"app"`
	}
	in := doc{
		Class:    ClassEnvDependentTransient,
		Trigger:  TriggerRace,
		Symptom:  SymptomCrash,
		Severity: SeverityCritical,
		App:      AppMySQL,
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"environment-dependent-transient"`) {
		t.Errorf("class not marshaled by name: %s", data)
	}
	if !strings.Contains(string(data), `"race"`) || !strings.Contains(string(data), `"mysql"`) {
		t.Errorf("enums not marshaled by name: %s", data)
	}
	var out doc
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip: %+v != %+v", out, in)
	}
	// Bad names fail cleanly.
	var c FaultClass
	if err := json.Unmarshal([]byte(`"sideways"`), &c); err == nil {
		t.Error("bad class name should fail")
	}
	if err := json.Unmarshal([]byte(`17`), &c); err == nil {
		t.Error("numeric class should fail")
	}
}
