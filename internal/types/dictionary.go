package types

import (
	"fmt"
	"sort"
)

// Dictionary maps drug and reaction strings to compact Item IDs and
// back. IDs are issued densely starting at 0, in first-seen order, so
// they can index slices directly. A Dictionary is not safe for
// concurrent mutation; build it single-threaded (ingest is sequential
// anyway), then share it read-only.
type Dictionary struct {
	byName  map[string]Item
	names   []string
	domains []Domain
	nDrug   int
	nReac   int
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary { return NewDictionarySized(0) }

// NewDictionarySized returns an empty dictionary with room for n names.
func NewDictionarySized(n int) *Dictionary {
	return &Dictionary{
		byName:  make(map[string]Item, n),
		names:   make([]string, 0, n),
		domains: make([]Domain, 0, n),
	}
}

// Intern returns the Item for name within dom, issuing a fresh ID on
// first sight. Interning the same name under two different domains is
// a caller bug and panics: FAERS drug and reaction vocabularies are
// disjoint by construction (Idrug ∩ Iade ≡ ∅, Section 3.1), and
// silently merging them would corrupt every rule downstream.
func (d *Dictionary) Intern(name string, dom Domain) Item {
	if it, ok := d.byName[name]; ok {
		if d.domains[it] != dom {
			panic(fmt.Sprintf("types: %q interned as both %v and %v", name, d.domains[it], dom))
		}
		return it
	}
	return d.add(name, dom)
}

// Add interns name within dom as a fresh item. It reports false, and
// leaves the dictionary unchanged, when name is already interned in
// either domain — the check a reader of persisted names needs.
func (d *Dictionary) Add(name string, dom Domain) bool {
	if _, ok := d.byName[name]; ok {
		return false
	}
	d.add(name, dom)
	return true
}

func (d *Dictionary) add(name string, dom Domain) Item {
	it := Item(len(d.names))
	d.byName[name] = it
	d.names = append(d.names, name)
	d.domains = append(d.domains, dom)
	if dom == DomainDrug {
		d.nDrug++
	} else {
		d.nReac++
	}
	return it
}

// Lookup returns the Item for name, or NoItem if it was never interned.
func (d *Dictionary) Lookup(name string) Item {
	if it, ok := d.byName[name]; ok {
		return it
	}
	return NoItem
}

// Name returns the string for it. It panics on an ID the dictionary
// never issued.
func (d *Dictionary) Name(it Item) string { return d.names[it] }

// Domain returns the domain recorded for it.
func (d *Dictionary) Domain(it Item) Domain { return d.domains[it] }

// IsDrug reports whether it is a drug item.
func (d *Dictionary) IsDrug(it Item) bool { return d.domains[it] == DomainDrug }

// IsReaction reports whether it is a reaction item.
func (d *Dictionary) IsReaction(it Item) bool { return d.domains[it] == DomainReaction }

// Len returns the total number of interned items.
func (d *Dictionary) Len() int { return len(d.names) }

// DrugCount returns the number of distinct drug items.
func (d *Dictionary) DrugCount() int { return d.nDrug }

// ReactionCount returns the number of distinct reaction items.
func (d *Dictionary) ReactionCount() int { return d.nReac }

// Names translates an itemset into its string names, preserving order.
func (d *Dictionary) Names(set Itemset) []string {
	out := make([]string, len(set))
	for i, it := range set {
		out[i] = d.names[it]
	}
	return out
}

// SortedNames translates an itemset into alphabetically sorted names,
// the stable presentation order used in reports and visuals.
func (d *Dictionary) SortedNames(set Itemset) []string {
	out := d.Names(set)
	sort.Strings(out)
	return out
}

// SplitDomains partitions set into its drug items and reaction items,
// each preserving the set's ID order.
func (d *Dictionary) SplitDomains(set Itemset) (drugs, reactions Itemset) {
	for _, it := range set {
		if d.IsDrug(it) {
			drugs = append(drugs, it)
		} else {
			reactions = append(reactions, it)
		}
	}
	return drugs, reactions
}
