// Package meddra provides a MedDRA-flavoured grouping of reaction
// terms into System Organ Classes (SOCs). FAERS reaction strings are
// MedDRA preferred terms; the real MedDRA dictionary is licensed, so
// this package ships a curated mapping of the common preferred terms
// plus a keyword-based classifier for the long tail — enough to group
// and filter signals by organ system the way safety evaluators
// triage them.
package meddra

import (
	"slices"
	"strings"
)

// SOC is a System Organ Class label.
type SOC string

// The SOC vocabulary (a subset of MedDRA's 27, covering the terms
// adverse-event mining encounters most).
const (
	SOCBlood          SOC = "Blood and lymphatic system disorders"
	SOCCardiac        SOC = "Cardiac disorders"
	SOCEar            SOC = "Ear and labyrinth disorders"
	SOCEye            SOC = "Eye disorders"
	SOCGastro         SOC = "Gastrointestinal disorders"
	SOCGeneral        SOC = "General disorders and administration site conditions"
	SOCHepatic        SOC = "Hepatobiliary disorders"
	SOCImmune         SOC = "Immune system disorders"
	SOCInfections     SOC = "Infections and infestations"
	SOCInjury         SOC = "Injury, poisoning and procedural complications"
	SOCMetabolism     SOC = "Metabolism and nutrition disorders"
	SOCMusculoskel    SOC = "Musculoskeletal and connective tissue disorders"
	SOCNervous        SOC = "Nervous system disorders"
	SOCPsychiatric    SOC = "Psychiatric disorders"
	SOCRenal          SOC = "Renal and urinary disorders"
	SOCRespiratory    SOC = "Respiratory, thoracic and mediastinal disorders"
	SOCSkin           SOC = "Skin and subcutaneous tissue disorders"
	SOCVascular       SOC = "Vascular disorders"
	SOCInvestigations SOC = "Investigations"
	SOCUnclassified   SOC = "Unclassified"
)

// curated maps normalized preferred terms (lower-case) to their SOC.
var curated = map[string]SOC{
	"anaemia":                    SOCBlood,
	"pancytopenia":               SOCBlood,
	"bone marrow failure":        SOCBlood,
	"haemorrhage":                SOCVascular,
	"hypertension":               SOCVascular,
	"hypotension":                SOCVascular,
	"bradycardia":                SOCCardiac,
	"tachycardia":                SOCCardiac,
	"palpitations":               SOCCardiac,
	"cardiac arrest":             SOCCardiac,
	"tinnitus":                   SOCEar,
	"vision blurred":             SOCEye,
	"nausea":                     SOCGastro,
	"vomiting":                   SOCGastro,
	"diarrhoea":                  SOCGastro,
	"constipation":               SOCGastro,
	"abdominal pain":             SOCGastro,
	"dry mouth":                  SOCGastro,
	"fatigue":                    SOCGeneral,
	"asthenia":                   SOCGeneral,
	"malaise":                    SOCGeneral,
	"pyrexia":                    SOCGeneral,
	"pain":                       SOCGeneral,
	"chest pain":                 SOCGeneral,
	"oedema peripheral":          SOCGeneral,
	"drug ineffective":           SOCGeneral,
	"drug interaction":           SOCGeneral,
	"serotonin syndrome":         SOCNervous,
	"dizziness":                  SOCNervous,
	"headache":                   SOCNervous,
	"somnolence":                 SOCNervous,
	"syncope":                    SOCNervous,
	"tremor":                     SOCNervous,
	"neuropathy peripheral":      SOCNervous,
	"anxiety":                    SOCPsychiatric,
	"depression":                 SOCPsychiatric,
	"insomnia":                   SOCPsychiatric,
	"confusional state":          SOCPsychiatric,
	"acute renal failure":        SOCRenal,
	"dyspnoea":                   SOCRespiratory,
	"cough":                      SOCRespiratory,
	"asthma":                     SOCRespiratory,
	"rash":                       SOCSkin,
	"pruritus":                   SOCSkin,
	"alopecia":                   SOCSkin,
	"hyperhidrosis":              SOCSkin,
	"osteoporosis":               SOCMusculoskel,
	"osteoarthritis":             SOCMusculoskel,
	"osteonecrosis of jaw":       SOCMusculoskel,
	"arthralgia":                 SOCMusculoskel,
	"myalgia":                    SOCMusculoskel,
	"back pain":                  SOCMusculoskel,
	"rhabdomyolysis":             SOCMusculoskel,
	"hyperkalaemia":              SOCMetabolism,
	"hypoglycaemia":              SOCMetabolism,
	"lactic acidosis":            SOCMetabolism,
	"weight decreased":           SOCInvestigations,
	"weight increased":           SOCInvestigations,
	"blood glucose increased":    SOCInvestigations,
	"fall":                       SOCInjury,
	"lithium toxicity":           SOCInjury,
	"toxicity to various agents": SOCInjury,
}

// keyword rules classify tail terms the curated table misses; first
// match wins, so order from specific to general.
var keywordRules = []struct {
	substr string
	soc    SOC
}{
	{"renal", SOCRenal},
	{"urinary", SOCRenal},
	{"cardiac", SOCCardiac},
	{"myocardial", SOCCardiac},
	{"hepat", SOCHepatic},
	{"liver", SOCHepatic},
	{"pneumon", SOCRespiratory},
	{"bronch", SOCRespiratory},
	{"respir", SOCRespiratory},
	{"dyspnoea", SOCRespiratory},
	{"derma", SOCSkin},
	{"rash", SOCSkin},
	{"prurit", SOCSkin},
	{"osteo", SOCMusculoskel},
	{"muscul", SOCMusculoskel},
	{"arthr", SOCMusculoskel},
	{"neuro", SOCNervous},
	{"seizure", SOCNervous},
	{"convuls", SOCNervous},
	{"psych", SOCPsychiatric},
	{"depress", SOCPsychiatric},
	{"anxi", SOCPsychiatric},
	{"anaem", SOCBlood},
	{"cytopenia", SOCBlood},
	{"leukopenia", SOCBlood},
	{"glyc", SOCMetabolism},
	{"kalaemia", SOCMetabolism},
	{"natraemia", SOCMetabolism},
	{"infect", SOCInfections},
	{"sepsis", SOCInfections},
	{"toxicity", SOCInjury},
	{"overdose", SOCInjury},
	{"gastro", SOCGastro},
	{"vomit", SOCGastro},
	{"diarrh", SOCGastro},
	{"haemorrhage", SOCVascular},
	{"bleed", SOCVascular},
	{"thrombo", SOCVascular},
	{"embol", SOCVascular},
	{"blood", SOCInvestigations},
	{"increased", SOCInvestigations},
	{"decreased", SOCInvestigations},
}

// Classify maps a reaction term (any case; qualifiers like "acute" or
// "type 3" are tolerated) to its System Organ Class. Unknown terms
// return SOCUnclassified.
func Classify(term string) SOC {
	t := strings.ToLower(strings.TrimSpace(term))
	if t == "" {
		return SOCUnclassified
	}
	if soc, ok := curated[t]; ok {
		return soc
	}
	// Strip trailing qualifiers the synthetic vocabulary (and real
	// verbatim reports) append, then retry the curated table.
	base := stripQualifiers(t)
	if soc, ok := curated[base]; ok {
		return soc
	}
	for _, r := range keywordRules {
		if strings.Contains(t, r.substr) {
			return r.soc
		}
	}
	return SOCUnclassified
}

var qualifierWords = map[string]bool{
	"aggravated": true, "postoperative": true, "chronic": true,
	"acute": true, "recurrent": true, "neonatal": true,
	"exertional": true, "nocturnal": true, "type": true,
}

// stripQualifiers removes trailing qualifier words and "type N"
// suffixes: "acute renal failure neonatal type 7" → "acute renal
// failure".
func stripQualifiers(t string) string {
	words := strings.Fields(t)
	for len(words) > 1 {
		last := words[len(words)-1]
		if qualifierWords[last] || isNumber(last) {
			words = words[:len(words)-1]
			continue
		}
		break
	}
	return strings.Join(words, " ")
}

func isNumber(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// ClassifyAll maps each term to its SOC, deduplicated, in first-seen
// order. The result holds at most one entry per SOC, so scanning it
// is cheaper than keeping a set.
func ClassifyAll(terms []string) []SOC {
	var out []SOC
	for _, t := range terms {
		if soc := Classify(t); !slices.Contains(out, soc) {
			out = append(out, soc)
		}
	}
	return out
}

// GroupTerms buckets terms by SOC.
func GroupTerms(terms []string) map[SOC][]string {
	out := map[SOC][]string{}
	for _, t := range terms {
		soc := Classify(t)
		out[soc] = append(out[soc], t)
	}
	return out
}
