package resilience

import "testing"

// FuzzFailpointSpec throws specs at the failpoint grammar, one action
// term through parseAction and the whole string through Enable. The
// contract: either an error, or failpoints whose probability is in
// (0,1], whose trigger budget is -1 (unlimited) or positive, and whose
// delay is not negative. Nothing is injected, so no armed site fires.
func FuzzFailpointSpec(f *testing.F) {
	for _, s := range []string{
		"error", "error(0.5)", "error(1,boom)", "error*3", "error(0.25,msg)*2",
		"delay(50ms)", "delay(1ms,0.2)", "delay(0s)*1", "panic", "panic(0.1)",
		"off", "error(NaN)", "delay(1ms,nan)", "error(Inf)", "error(0x1p-2)",
		"delay(-1ms)", "error*0", "error(1,a*2)", "store/decode=error*1;store/load=delay(50ms,0.2)",
		"a=error;a=off", "x=delay(1ms", "=error", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if fp, err := parseAction(spec); err == nil {
			checkFailpoint(t, "parseAction("+spec+")", fp)
		}
		t.Cleanup(DisableAll)
		if err := Enable(spec); err != nil {
			return
		}
		fpState.mu.Lock()
		defer fpState.mu.Unlock()
		for site, fp := range fpState.sites {
			checkFailpoint(t, "Enable("+spec+") site "+site, fp)
		}
	})
}

func checkFailpoint(t *testing.T, what string, fp *failpoint) {
	t.Helper()
	if !(fp.prob > 0 && fp.prob <= 1) {
		t.Errorf("%s: probability %v outside (0,1]", what, fp.prob)
	}
	if fp.budget != -1 && fp.budget <= 0 {
		t.Errorf("%s: trigger budget %d, want -1 or > 0", what, fp.budget)
	}
	if fp.delay < 0 {
		t.Errorf("%s: negative delay %v", what, fp.delay)
	}
}
