package resilience

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestInjectDisarmedIsNil(t *testing.T) {
	DisableAll()
	if err := Inject(FPDecode); err != nil {
		t.Fatalf("disarmed Inject returned %v", err)
	}
}

func TestEnableErrorDeterministic(t *testing.T) {
	t.Cleanup(DisableAll)
	if err := Enable(FPDecode + "=error"); err != nil {
		t.Fatal(err)
	}
	err := Inject(FPDecode)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if !strings.Contains(err.Error(), FPDecode) {
		t.Fatalf("error %q does not name the site", err)
	}
}

func TestEnableErrorMessage(t *testing.T) {
	t.Cleanup(DisableAll)
	if err := Enable(FPLoad + "=error(1,disk on fire)"); err != nil {
		t.Fatal(err)
	}
	err := Inject(FPLoad)
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("want custom message, got %v", err)
	}
}

func TestTriggerBudget(t *testing.T) {
	t.Cleanup(DisableAll)
	if err := Enable(FPDecode + "=error*2"); err != nil {
		t.Fatal(err)
	}
	fired := 0
	for i := 0; i < 5; i++ {
		if Inject(FPDecode) != nil {
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("budget *2 fired %d times", fired)
	}
	st := Stats()
	if len(st) != 1 || st[0].Evals != 5 || st[0].Triggers != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestProbabilisticTriggerSeeded(t *testing.T) {
	t.Cleanup(DisableAll)
	run := func() int {
		Seed(42)
		if err := Enable(FPLoad + "=error(0.3)"); err != nil {
			t.Fatal(err)
		}
		fired := 0
		for i := 0; i < 200; i++ {
			if Inject(FPLoad) != nil {
				fired++
			}
		}
		DisableAll()
		return fired
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different trigger counts: %d vs %d", a, b)
	}
	if a < 30 || a > 110 {
		t.Fatalf("p=0.3 over 200 evals fired %d times", a)
	}
}

func TestDelayAction(t *testing.T) {
	t.Cleanup(DisableAll)
	if err := Enable(FPLoad + "=delay(30ms)"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Inject(FPLoad); err != nil {
		t.Fatalf("delay action returned error %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("delay(30ms) slept only %v", d)
	}
}

func TestPanicAction(t *testing.T) {
	t.Cleanup(DisableAll)
	if err := Enable(FPMine + "=panic"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("panic action did not panic")
		}
	}()
	_ = Inject(FPMine)
}

func TestOffDisarmsSite(t *testing.T) {
	t.Cleanup(DisableAll)
	if err := Enable(FPDecode + "=error;" + FPLoad + "=error"); err != nil {
		t.Fatal(err)
	}
	if err := Enable(FPDecode + "=off"); err != nil {
		t.Fatal(err)
	}
	if err := Inject(FPDecode); err != nil {
		t.Fatalf("disarmed site still fires: %v", err)
	}
	if err := Inject(FPLoad); err == nil {
		t.Fatal("other site was disarmed too")
	}
}

func TestEnableFromEnv(t *testing.T) {
	t.Cleanup(DisableAll)
	t.Setenv(FailpointEnv, FPDecode+"=error*1")
	spec, err := EnableFromEnv()
	if err != nil || spec == "" {
		t.Fatalf("EnableFromEnv = %q, %v", spec, err)
	}
	if Inject(FPDecode) == nil {
		t.Fatal("env-armed site did not fire")
	}
}

func TestEnableBadSpecs(t *testing.T) {
	t.Cleanup(DisableAll)
	for _, spec := range []string{
		"noequals",
		"=error",
		"x=explode",
		"x=error(2)",
		"x=error(0)",
		"x=delay",
		"x=delay(nope)",
		"x=error*0",
		"x=error(1,msg,extra)",
		"x=panic(0.5,9)",
		"x=delay(1ms",
		"x=error(NaN)",
		"x=delay(1ms,nan)",
		"x=panic(-Inf)",
	} {
		if err := Enable(spec); err == nil {
			t.Errorf("Enable(%q) accepted a bad spec", spec)
		}
	}
	if err := Enable("  "); err != nil {
		t.Errorf("blank spec should be a no-op, got %v", err)
	}
}
