package types

import (
	"reflect"
	"testing"
)

func TestDictionaryInternRoundTrip(t *testing.T) {
	d := NewDictionary()
	asp := d.Intern("ASPIRIN", DomainDrug)
	war := d.Intern("WARFARIN", DomainDrug)
	bleed := d.Intern("Haemorrhage", DomainReaction)

	if asp == war || asp == bleed || war == bleed {
		t.Fatalf("IDs not distinct: %d %d %d", asp, war, bleed)
	}
	if d.Name(asp) != "ASPIRIN" || d.Name(bleed) != "Haemorrhage" {
		t.Errorf("Name round trip failed: %q %q", d.Name(asp), d.Name(bleed))
	}
	if got := d.Intern("ASPIRIN", DomainDrug); got != asp {
		t.Errorf("re-Intern issued new ID %d, want %d", got, asp)
	}
	if d.Len() != 3 || d.DrugCount() != 2 || d.ReactionCount() != 1 {
		t.Errorf("counts = %d/%d/%d, want 3/2/1", d.Len(), d.DrugCount(), d.ReactionCount())
	}
}

func TestDictionaryLookupMissing(t *testing.T) {
	d := NewDictionary()
	if got := d.Lookup("nope"); got != NoItem {
		t.Errorf("Lookup(missing) = %d, want NoItem", got)
	}
}

func TestDictionaryDomainClashPanics(t *testing.T) {
	d := NewDictionary()
	d.Intern("X", DomainDrug)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on cross-domain Intern")
		}
	}()
	d.Intern("X", DomainReaction)
}

// TestDictionaryAdd: Add refuses a name already interned in either
// domain instead of panicking, and leaves the dictionary unchanged.
func TestDictionaryAdd(t *testing.T) {
	d := NewDictionarySized(2)
	if !d.Add("X", DomainDrug) || !d.Add("Y", DomainReaction) {
		t.Fatal("Add refused fresh names")
	}
	if d.Add("X", DomainDrug) || d.Add("X", DomainReaction) {
		t.Error("Add accepted a repeated name")
	}
	if d.Len() != 2 || d.DrugCount() != 1 || d.Lookup("Y") != 1 || d.Domain(0) != DomainDrug {
		t.Errorf("dictionary changed by refused Adds: len %d, drugs %d", d.Len(), d.DrugCount())
	}
}

func TestDictionaryDomainPredicates(t *testing.T) {
	d := NewDictionary()
	drug := d.Intern("PROGRAF", DomainDrug)
	reac := d.Intern("Drug Ineffective", DomainReaction)
	if !d.IsDrug(drug) || d.IsReaction(drug) {
		t.Error("drug item misclassified")
	}
	if !d.IsReaction(reac) || d.IsDrug(reac) {
		t.Error("reaction item misclassified")
	}
	if d.Domain(drug) != DomainDrug || d.Domain(reac) != DomainReaction {
		t.Error("Domain() wrong")
	}
}

func TestDictionarySplitDomains(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("A", DomainDrug)
	r1 := d.Intern("r1", DomainReaction)
	b := d.Intern("B", DomainDrug)
	r2 := d.Intern("r2", DomainReaction)

	full := NewItemset(a, r1, b, r2)
	drugs, reacs := d.SplitDomains(full)
	if !drugs.Equal(NewItemset(a, b)) {
		t.Errorf("drugs = %v", drugs)
	}
	if !reacs.Equal(NewItemset(r1, r2)) {
		t.Errorf("reactions = %v", reacs)
	}
}

func TestDictionaryNames(t *testing.T) {
	d := NewDictionary()
	z := d.Intern("ZOMETA", DomainDrug)
	p := d.Intern("PRILOSEC", DomainDrug)
	got := d.Names(NewItemset(z, p))
	if !reflect.DeepEqual(got, []string{"ZOMETA", "PRILOSEC"}) {
		t.Errorf("Names = %v", got)
	}
	sorted := d.SortedNames(NewItemset(z, p))
	if !reflect.DeepEqual(sorted, []string{"PRILOSEC", "ZOMETA"}) {
		t.Errorf("SortedNames = %v", sorted)
	}
}

func TestDomainString(t *testing.T) {
	if DomainDrug.String() != "drug" || DomainReaction.String() != "reaction" {
		t.Error("Domain.String wrong")
	}
	if Domain(9).String() == "" {
		t.Error("unknown domain should still render")
	}
}
