package ifttt

import (
	"time"

	"iotsan/internal/checker"
	"iotsan/internal/model"
	"iotsan/internal/props"
)

// Table9Applets returns the 10 smart-home rules of the paper's §11
// validation set. Rule numbers follow the paper's table: rules 1/3 light
// on intrusion without alarming, rule 2 fires the siren on a voice
// command, rule 4 auto-silences the siren, rules 5/6 unlock doors on
// voice commands, rules 7/8 light on intrusion, rule 9 is benign, rule
// 10 places a phone call only on a doorbell button.
func Table9Applets() []Applet {
	return []Applet{
		{Name: "rule1", // motion → hue light (no siren)
			Trigger: Trigger{Service: "smartthings", Device: "hall_motion", Event: "motion.active"},
			Action:  Action{Service: "hue", Device: "hall_hue", Command: "on"}},
		{Name: "rule2", // alexa phrase → siren
			Trigger: Trigger{Service: "alexa", Device: "echo", Event: "voice.phrase"},
			Action:  Action{Service: "smartthings", Device: "siren", Command: "siren"}},
		{Name: "rule3", // ring doorbell motion → porch wemo light
			Trigger: Trigger{Service: "ring", Device: "doorbell", Event: "ding"},
			Action:  Action{Service: "wemo", Device: "porch_light", Command: "on"}},
		{Name: "rule4", // siren on → siren off (auto-silencer)
			Trigger: Trigger{Service: "smartthings", Device: "siren", Event: "alarm.siren"},
			Action:  Action{Service: "smartthings", Device: "siren", Command: "off"}},
		{Name: "rule5", // assistant phrase → unlock front door
			Trigger: Trigger{Service: "assistant", Device: "home_mini", Event: "voice.phrase"},
			Action:  Action{Service: "smartthings", Device: "front_lock", Command: "unlock"}},
		{Name: "rule6", // alexa phrase → unlock main door
			Trigger: Trigger{Service: "alexa", Device: "echo_dot", Event: "voice.phrase"},
			Action:  Action{Service: "smartthings", Device: "main_lock", Command: "unlock"}},
		{Name: "rule7", // motion → hue accent (no call)
			Trigger: Trigger{Service: "smartthings", Device: "yard_motion", Event: "motion.active"},
			Action:  Action{Service: "hue", Device: "accent_hue", Command: "on"}},
		{Name: "rule8", // back contact open → wemo fan (no call)
			Trigger: Trigger{Service: "smartthings", Device: "back_contact", Event: "contact.open"},
			Action:  Action{Service: "wemo", Device: "fan", Command: "on"}},
		{Name: "rule9", // temperature → nest heat (benign)
			Trigger: Trigger{Service: "smartthings", Device: "room_temp", Event: "temperature"},
			Action:  Action{Service: "nest", Device: "nest_thermo", Command: "heat"}},
		{Name: "rule10", // doorbell button → voip call
			Trigger: Trigger{Service: "alexa", Device: "door_button", Event: "voice.phrase"},
			Action:  Action{Service: "voip", Device: "call_owner", Command: "ring"}},
	}
}

// Table9Properties are the four unsafe physical states of Table 9, each
// G p over one seven-atom table resolved against plan's devices.
func Table9Properties(plan *model.Plan) ([]model.Invariant, error) {
	named := func(name string, a model.Atom) model.Atom {
		a.Name = name
		return a
	}
	table, err := plan.NewAtomTable([]model.Atom{
		named("mode_away", props.ModeIs(plan.Cfg.Modes, "Away")),
		named("motion_active", props.EnumAtom(plan.ByCapability("motionSensor"), "motion", "active", false)),
		named("smoke_detected", props.EnumAtom(plan.ByCapability("smokeDetector"), "smoke", "detected", false)),
		named("contact_open", props.EnumAtom(plan.ByCapability("contactSensor"), "contact", "open", false)),
		named("alarms_off", props.EnumAtom(plan.ByAssociation("alarm"), "alarm", "off", true)),
		named("main_door_unlocked", props.EnumAtom(plan.ByAssociation("main door"), "lock", "unlocked", false)),
		named("call_beeping", props.EnumAtom(plan.ByAssociation("voip call"), "tone", "beeping", false)),
	})
	if err != nil {
		return nil, err
	}
	// Bit i of a valuation word is atom i above.
	const (
		modeAway uint64 = 1 << iota
		motion
		smoke
		contactOpen
		alarmsOff
		mainUnlocked
		callBeeping
	)
	all := func(w, bits uint64) bool { return w&bits == bits }
	return []model.Invariant{
		{
			ID:          "ifttt.siren-on-intruder",
			Description: "Siren/strobe is not activated when intruder (i.e., motion) is detected",
			Atoms:       table,
			Over:        func(w uint64) bool { return !all(w, modeAway|motion|alarmsOff) },
		},
		{
			ID:          "ifttt.no-spurious-siren",
			Description: "Siren/strobe is activated when no intruder is detected",
			Atoms:       table,
			Over:        func(w uint64) bool { return w&(alarmsOff|motion|smoke|contactOpen) != 0 },
		},
		{
			ID:          "ifttt.door-unlocked-away",
			Description: "The main/front door is unlocked when no one is at home",
			Atoms:       table,
			Over:        func(w uint64) bool { return !all(w, modeAway|mainUnlocked) },
		},
		{
			ID:          "ifttt.call-on-intruder",
			Description: "A phone call is not triggered when intruder is detected",
			Atoms:       table,
			Over: func(w uint64) bool {
				return w&modeAway == 0 || w&(motion|contactOpen) == 0 || w&callBeeping != 0
			},
		},
	}, nil
}

// Table9Result reports the violated properties with their responsible
// rules (derived from the violation trails).
type Table9Result struct {
	ViolatedProperties []string
	Violations         int
	Result             *checker.Result
}

// RunTable9 verifies the validation applet set against the four
// properties, reproducing Table 9's shape (7 violations of 4 unsafe
// physical states in the paper).
func RunTable9(maxEvents int) (*Table9Result, error) {
	sys, apps, err := BuildSystem(Table9Applets())
	if err != nil {
		return nil, err
	}
	sys.Mode = "Away" // the paper's scenario: intrusion while away
	plan, err := model.Prepare(sys)
	if err != nil {
		return nil, err
	}
	insts, err := plan.PrepareApps(sys.Apps, apps, false)
	if err != nil {
		return nil, err
	}
	invs, err := Table9Properties(plan)
	if err != nil {
		return nil, err
	}
	m, err := plan.Build(insts, model.Options{
		MaxEvents:      maxEvents,
		Invariants:     invs,
		InspectCascade: true, // strict Spin-style checking (§2.3)
		Incremental:    true,
	})
	if err != nil {
		return nil, err
	}
	res := checker.Run(m.System(), checker.Options{
		MaxDepth: maxEvents + 8, MaxStates: 300000, Deadline: 20 * time.Second,
	})
	out := &Table9Result{Result: res}
	out.ViolatedProperties = res.PropertyIDs()
	out.Violations = len(res.Violations)
	return out, nil
}
